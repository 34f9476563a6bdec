let page_size = 4096
let data_pages = 2
let guard = 64
let sandbox_size = (data_pages * page_size) + guard
let sandbox_base = 0x10000L
let stack_top = Int64.add sandbox_base (Int64.of_int (data_pages * page_size))
let cache_line = 64
let l1d_sets = 64
let l1d_ways = 8
let line_mask_one_page = 0b111111000000L
let line_mask_two_pages = 0b1111111000000L
let page_of_offset off = off / page_size

(* Inline: an [int64] passed to a call that is not inlined is boxed,
   and the simulator checks every memory step's address. *)
let[@inline] in_sandbox addr =
  Int64.compare addr sandbox_base >= 0
  && Int64.compare addr (Int64.add sandbox_base (Int64.of_int sandbox_size)) < 0

let[@inline] offset_of_addr addr = Int64.to_int (Int64.sub addr sandbox_base)
