(** A Memcached-style key-value store (§7.3, Fig. 8).

    Items are stored in slabs: fixed-size chunks carved from page-aligned
    slab runs allocated from the caller's allocator — the same layout
    Memcached's slab allocator produces, and the one the paper modifies
    (~30 LOC) so that "all accesses to the items in the key-value store
    are managed by clusters holding 10 pages".  A GET hashes into an
    open-chained index (small, hot), follows the pointer to the item's
    slab chunk, and reads the full value; a SET writes it. *)

type t

val create :
  vm:Vm.t -> alloc:(bytes:int -> int) -> rng:Metrics.Rng.t ->
  n_entries:int -> value_bytes:int -> ?slab_pages:int -> unit -> t
(** Populate with [n_entries] items of [value_bytes].  [slab_pages]
    (default 16) is the contiguous page run carved per slab.  Raises
    [Invalid_argument] naming [n_entries], [value_bytes] or [slab_pages]
    unless each is positive. *)

val get : t -> key:int -> bool
(** One GET through [vm]; also emits one progress event (the paper's
    natural progress unit is the request). *)

val set : t -> key:int -> unit

val n_entries : t -> int

val footprint : t -> Metrics.Words.t -> unit
(** Count the store and its key -> item index as [Workload_tables]. *)

val item_pages : t -> int list
(** Distinct pages of the slab area (what a policy protects). *)

val index_pages : t -> int list
(** Pages of the hash index. *)

val data_region : t -> int * int
(** [(first_page, page_count)] spanning slabs; for ORAM wiring. *)
