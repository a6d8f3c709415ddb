(** The enclave-managed ORAM page cache (§5.2.2, §6).

    CoSMIX-style instrumentation routes every access to the protected
    data region through this cache.  Hits touch a pinned cache page
    directly — safe under Autarky because accesses to resident
    enclave-managed pages are invisible to the OS.  Misses run the full
    PathORAM protocol to swap the page between the cache and the
    oblivious store (an oblivious copy in each direction), evicting a
    cache slot round-robin.  The write-back policy is configurable:
    [`Dirty_only] (CoSMIX's behaviour, the default) skips the ORAM write
    for clean pages, while [`Always] writes every evicted page back so
    the eviction traffic carries no dirtiness signal.

    Without Autarky this cache would itself leak (the OS could observe
    which cache pages are touched); the uncached baseline in
    {!Policy_oram.uncached_accessor} shows what that costs. *)

type t

type writeback = [ `Always | `Dirty_only ]

val create :
  ?writeback:writeback ->
  machine:Sgx.Machine.t -> enclave:Sgx.Enclave.t ->
  touch:(Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit) ->
  oram:Oram.Path_oram.t -> data_base_vpage:Sgx.Types.vpage -> n_pages:int ->
  cache_base_vpage:Sgx.Types.vpage -> capacity_pages:int -> unit -> t
(** [touch] performs a hardware access to a cache page (wired to the CPU
    model by the harness); the cache pages
    [cache_base_vpage .. +capacity_pages) must be enclave-managed and
    resident.
    @raise Invalid_argument when [n_pages] or [capacity_pages] is not
    positive, or [n_pages] exceeds the ORAM's block count. *)

val in_data_region : t -> Sgx.Types.vaddr -> bool

val data_region : t -> Sgx.Types.vpage * int
(** [(base_vpage, n_pages)] of the protected region. *)

val access : t -> Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit
(** One instrumented access to the protected region. *)

val read_stamp : t -> Sgx.Types.vaddr -> int
(** Read the integer stamp of the page holding [vaddr] through the cache
    (correctness checks in tests). *)

val write_stamp : t -> Sgx.Types.vaddr -> int -> unit

val hits : t -> int
val misses : t -> int

val live_capacity : t -> int
(** Cache slots currently in use (equals the creation capacity until
    {!shrink} is called). *)

val flush : t -> int
(** Policy-switch handoff: write every live occupant back to the ORAM
    (dirty slots under [`Dirty_only]; all slots under [`Always]) and
    empty the cache, making the oblivious store the single
    authoritative copy.  Returns the number of ORAM write-backs.  The
    cache remains usable (capacity unchanged). *)

val shrink : t -> pages:int -> Sgx.Types.vpage list
(** Degrade under memory pressure: release up to [pages] cache slots
    (dirty occupants are written back to the ORAM first) and return the
    released cache vpages, which the caller must stop using and may
    evict.  The cache never shrinks below a quarter of its original
    capacity; the returned list may therefore be shorter than [pages]
    (empty when already at the floor). *)
