open Revizor_isa

type result = { program : Program.t; inputs : Input.t list; fenced : Program.t }

let still_violates config executor program inputs =
  match Program.validate program with
  | Error _ -> false
  | Ok () -> (
      match Fuzzer.check_test_case config executor program inputs with
      | Ok (Some _) -> true
      | Ok None | Error _ -> false)

(* Stage 1: drop inputs greedily (halves first, then singles), keeping a
   sequence that still violates. *)
let minimize_inputs config executor program inputs =
  let rec drop_chunks inputs chunk =
    if chunk = 0 then inputs
    else
      let rec try_at start inputs =
        if start >= List.length inputs then inputs
        else
          let candidate =
            List.filteri (fun i _ -> i < start || i >= start + chunk) inputs
          in
          if List.length candidate >= 2
             && still_violates config executor program candidate
          then try_at start candidate
          else try_at (start + chunk) inputs
      in
      let reduced = try_at 0 inputs in
      drop_chunks reduced (if chunk > List.length reduced then List.length reduced / 2 else chunk / 2)
  in
  let n = List.length inputs in
  drop_chunks inputs (max 1 (n / 2))

(* Stage 2: remove instructions one at a time (from the end, so that the
   indices of earlier candidates stay valid). *)
let remove_nth program n =
  let count = ref (-1) in
  Program.map_insts
    (fun i ->
      incr count;
      if !count = n then [] else [ i ])
    program

let minimize_instructions config executor program inputs =
  let rec go program n =
    if n < 0 then program
    else
      let candidate = remove_nth program n in
      if still_violates config executor candidate inputs then go candidate (n - 1)
      else go program (n - 1)
  in
  go program (Program.num_insts program - 1)

(* Stage 3: insert LFENCE after each position, last first; keep the fences
   that do not kill the violation. The unfenced region localizes the
   leak. A fence inserted after position n leaves positions 0..n where
   they were, so the positions kept are positions of the given program;
   counting down, they come out ascending. The flight recorder applies
   this stage alone to the original program, the listing its artifact
   shows. *)
let fence_after program n =
  let count = ref (-1) in
  Program.map_insts
    (fun i ->
      incr count;
      if !count = n then [ i; Instruction.lfence ] else [ i ])
    program

let fence_localize config executor program inputs =
  let rec go program n kept =
    if n < 0 then (program, kept)
    else
      let candidate = fence_after program n in
      if still_violates config executor candidate inputs then
        (* Fence position is harmless: keep it (it narrows the region). *)
        go candidate (n - 1) (n :: kept)
      else go program (n - 1) kept
  in
  go program (Program.num_insts program - 1) []

let minimize config executor (v : Violation.t) =
  let program = v.Violation.program in
  let inputs = minimize_inputs config executor program v.Violation.inputs in
  let program = minimize_instructions config executor program inputs in
  let fenced, _ = fence_localize config executor program inputs in
  { program; inputs; fenced }
