(** Heap words by structure class: the accumulator behind the memory
    ledger ({!Harness.Footprint}).

    Every structure that the ledger ranks reports the blocks it built
    into one [t], and an owner passes the same [t] down to the
    structures it holds (machine, kernel process, runtime, pager,
    policies, workload, tenant).  A block counts as its header plus its
    fields ({!block}), the unit of [Obj.reachable_words].  A block that
    several owners reach, such as the machine's sealer, a swap store's
    shared zero page or an empty array, goes through {!once}, which
    counts it the first time it is seen by physical identity, so no
    block is counted twice. *)

type cls =
  | Swap_stores  (** sealed rows, deferred plaintexts, slot arrays, sealer *)
  | Flat_windows  (** every {!Sgx.Flat} window, wherever it sits *)
  | Workload_tables  (** workload indexes (uthash items, heads, ...) *)
  | Latency  (** per-tenant latency sketches *)
  | Epc_payloads  (** EPC frame contents *)
  | Epcm  (** EPCM entries, free stack and in-use bitset *)
  | Tlb
  | Oram  (** Path ORAM tree, stash, position map, payloads, cache *)

val classes : cls list
(** Every class, in report order. *)

val class_name : cls -> string

type t

val create : unit -> t

val block : 'a -> int
(** Words of the one block [x] points to: header plus fields, so a
    zero-length array counts one word.  0 for an immediate. *)

val add_block : t -> cls -> 'a -> unit
(** Add [block x] words to class [c]. *)

val once : t -> cls:cls -> 'a -> words:int -> unit
(** Count [words] for [x] into [cls] the first time [x] is seen (by
    [==]). *)

val add_slots : t -> slots:int -> live:int -> unit
(** Record a {!Sgx.Flat} window's slots and the ones holding a value. *)

val words : t -> cls -> int

val slots : t -> int
val live_slots : t -> int
