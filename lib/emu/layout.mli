(** Memory layout constants of the test-case sandbox.

    The sandbox mirrors the paper's setup (§5.1): one or two 4 KiB data
    pages, all generated accesses masked to cache-line granularity within
    them. A small guard tail keeps wide accesses at the last in-page offset
    in bounds, and the top of the last page doubles as the simulated stack
    for CALL/RET. *)

val page_size : int (* 4096 *)
val data_pages : int (* 2 *)
val guard : int (* 64: allows an 8-byte access at offset page_end-1+63 *)
val sandbox_size : int (* data_pages * page_size + guard *)

val sandbox_base : int64
(** Virtual base address loaded into R14. *)

val stack_top : int64
(** Initial RSP: [sandbox_base + data_pages * page_size]; CALL pushes
    downwards into the second data page. *)

val cache_line : int (* 64 *)
val l1d_sets : int (* 64 *)
val l1d_ways : int (* 8 *)

val line_mask_one_page : int64
(** [0b111111000000]: the AND mask confining an access to page 0, aligned to
    a cache line (Fig. 3 of the paper). *)

val line_mask_two_pages : int64
(** Same, but spanning both data pages. *)

val page_of_offset : int -> int
(** Data page index of a sandbox offset. *)

val in_sandbox : int64 -> bool
(** Whether a virtual address falls inside the sandbox (incl. guard). *)

val offset_of_addr : int64 -> int
(** Sandbox offset of a virtual address; meaningful when {!in_sandbox}. *)
