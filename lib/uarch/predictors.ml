module Pht = struct
  type t = { counters : int array }

  let create ?(size = 512) () = { counters = Array.make size 1 }
  let slot t pc = pc land (Array.length t.counters - 1)
  let predict t ~pc = t.counters.(slot t pc) >= 2

  let update t ~pc ~taken =
    let i = slot t pc in
    let c = t.counters.(i) in
    t.counters.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1))

  let get t ~pc = t.counters.(slot t pc)
  let set t ~pc c = t.counters.(slot t pc) <- c
  let reset t = Array.fill t.counters 0 (Array.length t.counters) 1
  let copy t = { counters = Array.copy t.counters }
end

module Btb = struct
  type t = { targets : int array (* -1 = no entry *) }

  let create ?(size = 256) () = { targets = Array.make size (-1) }
  let slot t pc = pc land (Array.length t.targets - 1)

  let predict t ~pc =
    let v = t.targets.(slot t pc) in
    if v < 0 then None else Some v

  let update t ~pc ~target = t.targets.(slot t pc) <- target
  let get t ~pc = t.targets.(slot t pc)
  let set t ~pc v = t.targets.(slot t pc) <- v
  let reset t = Array.fill t.targets 0 (Array.length t.targets) (-1)
  let copy t = { targets = Array.copy t.targets }
end

module Rsb = struct
  type t = { depth : int; mutable entries : int list }

  let create ?(depth = 16) () = { depth; entries = [] }

  let push t v =
    let cut l = if List.length l > t.depth then List.filteri (fun i _ -> i < t.depth) l else l in
    t.entries <- cut (v :: t.entries)

  let pop t =
    match t.entries with
    | [] -> None
    | v :: rest ->
        t.entries <- rest;
        Some v

  (* The stack contents as an immutable snapshot: [push]/[pop] replace
     [entries] with a new list and never mutate the old one, so the
     returned value stays valid and [restore] may install it as is. *)
  let entries t = t.entries
  let restore t entries = t.entries <- entries
  let reset t = t.entries <- []
  let copy t = { t with entries = t.entries }
end
