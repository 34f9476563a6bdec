open Revizor_emu

(* Reusable pool of template states for input materialization.

   [Input.templates] allocates a fresh 8 KiB [State.t] per input per test
   case; at fuzzing throughput that is hundreds of megabytes of garbage
   per minute. Template states are only ever (a) rewritten by
   [Input.apply] and (b) run on and undone by the model and the executor,
   which hand every template back as it came in — so the same pool of
   states can be refilled for every test case.

   Reuse is bit-identical to fresh allocation because [Input.apply]
   rewrites everything a previous fill could have changed: all generator
   pool registers and the flag word, and it marks every data word
   pending, so the first access to a word writes the new input's value
   over whatever an earlier test case left there. The remaining state
   (pc, non-pool registers, the guard/stack tail of the sandbox) keeps
   its [State.create] values forever, since every run on a template is
   undone. *)

type t = { mutable pool : State.t array; mutable view : State.t array }

let create () = { pool = [||]; view = [||] }

let ensure t n =
  let cap = Array.length t.pool in
  if cap < n then begin
    let ncap = Int.max n (Int.max 8 (2 * cap)) in
    t.pool <-
      Array.init ncap (fun i -> if i < cap then t.pool.(i) else State.create ())
  end

let templates ?plan:_ t inputs =
  let n = List.length inputs in
  ensure t n;
  (* The cached view aliases pool entries, so it survives pool growth
     (growth preserves the existing State values by reference). *)
  if Array.length t.view <> n then t.view <- Array.sub t.pool 0 n;
  List.iteri (fun i input -> Input.apply input t.pool.(i)) inputs;
  t.view

let m_words_filled = Revizor_obs.Metrics.counter "arena.words_filled"

let count_fills templates =
  let n = ref 0 in
  for i = 0 to Array.length templates - 1 do
    n := !n + Memory.words_filled templates.(i).State.mem
  done;
  Revizor_obs.Metrics.add m_words_filled !n
