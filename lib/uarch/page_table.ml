open Revizor_emu

type t = { bits : bool array }

let create () = { bits = Array.make Layout.data_pages true }

let clear_accessed t ~page =
  if page >= 0 && page < Array.length t.bits then t.bits.(page) <- false

let set_all t = Array.fill t.bits 0 (Array.length t.bits) true

let access t ~page =
  if page < 0 || page >= Array.length t.bits then false
  else if t.bits.(page) then false
  else begin
    t.bits.(page) <- true;
    true
  end

let accessed t ~page =
  page < 0 || page >= Array.length t.bits || t.bits.(page)
