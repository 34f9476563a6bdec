open Revizor_emu

(* Reusable pool of template states for input materialization.

   [Input.templates] allocates a fresh 8 KiB [State.t] per input per test
   case; at fuzzing throughput that is hundreds of megabytes of garbage
   per minute. Template states are only ever (a) rewritten by
   [Input.apply] and (b) read — the model and the executor copy them into
   their own scratch states before executing — so the same pool of states
   can be refilled for every test case.

   Reuse is bit-identical to fresh allocation because [Input.apply]
   rewrites everything a previous fill could have changed: all generator
   pool registers, the flag word and every data word. The remaining state
   (pc, non-pool registers, the guard/stack tail of the sandbox) keeps
   its [State.create] values forever, since templates are never executed
   on.

   With a sparse fill plan ([Input.fill_plan]) the invariant weakens to
   "rewrites everything the test program can read": unlisted data words
   keep a previous test case's values, which is observation-equivalent
   because the plan proves they are unreachable — speculatively included
   — for the program these templates will run.

   [dirty.(i)] bounds the entropy of the values pool state [i]'s data
   words may still hold: an input value of entropy [e] sits in bits
   6..e+5, so bytes 2..3 of a word can only be nonzero after a fill at
   entropy > 10 and bytes 4..7 only after one at entropy > 26. While a
   state's bound rules them out, its fills skip those stores. A full
   fill rewrites every data word, so it resets the bound to its own
   entropy; a sparse fill leaves unlisted words as they were, so it can
   only raise it. The bound is kept per pool state and follows each
   input's own entropy: a batch may mix entropies, and a smaller batch
   leaves the states past its end as they were. *)

type t = {
  mutable pool : State.t array;
  mutable dirty : int array;
  mutable view : State.t array;
  sparse : Input.sparse;
      (* the current plan's parity rows, rebuilt in place by every
         sparse [templates] call *)
}

let create () =
  { pool = [||]; dirty = [||]; view = [||]; sparse = Input.sparse () }

let ensure t n =
  let cap = Array.length t.pool in
  if cap < n then begin
    let ncap = max n (max 8 (2 * cap)) in
    t.pool <-
      Array.init ncap (fun i -> if i < cap then t.pool.(i) else State.create ());
    t.dirty <- Array.init ncap (fun i -> if i < cap then t.dirty.(i) else 0)
  end

let templates ?plan t inputs =
  let n = List.length inputs in
  ensure t n;
  (* The cached view aliases pool entries, so it survives pool growth
     (growth preserves the existing State values by reference). *)
  if Array.length t.view <> n then t.view <- Array.sub t.pool 0 n;
  let sparse =
    Option.map
      (fun plan ->
        (* Rows for the widest entropy the sparse path fills; an input of
           entropy [e] reads the first [e] rows of each word. *)
        let bits =
          List.fold_left
            (fun acc { Input.entropy; _ } ->
              if entropy <= 16 then max acc entropy else acc)
            0 inputs
        in
        Input.set_plan t.sparse plan ~bits;
        t.sparse)
      plan
  in
  List.iteri
    (fun i (input : Input.t) ->
      let d = t.dirty.(i) and e = max 0 input.Input.entropy in
      Input.apply ~data_hi_zero:(d <= 26) ~data_mid_zero:(d <= 10) ?sparse
        input t.pool.(i);
      t.dirty.(i) <-
        (match sparse with
        | Some _ when e <= 16 -> max d e
        | _ -> e (* a full fill; entropy > 16 always takes one *)))
    inputs;
  t.view
