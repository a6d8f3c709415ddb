(** Rate-limited demand paging for unmodified binaries (§5.2.4).

    The weakest (but zero-change) policy: enclave-managed data pages use
    ordinary demand paging inside the enclave — each legitimate fault
    fetches exactly the faulting page — so cold-page accesses leak
    through the demand-paging side channel.  To bound what an active
    attacker can extract, the policy enforces an application-specific cap
    on faults per unit of forward progress (I/O calls, allocations,
    requests — whatever the libOS can observe, since the enclave has no
    trusted clock); exceeding the cap terminates the enclave.

    Eviction happens in batches (mirroring the SGX driver's 16-page
    batches) under one of two victim policies.  Accessed bits are not
    available to a self-paging enclave, so §5.1.4 suggests learning from
    fault frequency instead:
    {ul
    {- [`Fifo] — evict the oldest resident pages (the default).}
    {- [`Fault_frequency] — among the oldest candidates prefer the pages
       that have faulted least: frequently-refetched ("hot") pages stay
       resident, like Linux's NUMA page-migration heuristic.}} *)

type eviction = [ `Fifo | `Fault_frequency ]

type t

val create :
  runtime:Runtime.t -> ?max_faults_per_unit:int -> ?evict_batch:int ->
  ?eviction:eviction -> ?min_budget:int -> unit -> t
(** [max_faults_per_unit] defaults to [max_int] (no limit — pure demand
    paging); [evict_batch] defaults to 16; [eviction] to [`Fifo].
    [min_budget] (default 16) is the floor the pager budget degrades
    toward under sustained memory-pressure upcalls: the first balloon
    call only evicts, the second and further ones also shrink the
    budget (counted in ["rt.policy_degraded"]).  Raises
    [Invalid_argument] naming [max_faults_per_unit], [evict_batch] or
    [min_budget] unless it is positive. *)

val policy : t -> Runtime.policy
(** Install with {!Runtime.set_policy}. *)

val progress : t -> unit
(** Record one unit of application progress (resets the fault window).
    Wired to the workload's progress events by the harness. *)

val faults_in_window : t -> int
val total_faults : t -> int

val fault_count : t -> Sgx.Types.vpage -> int
(** How often a page has faulted (drives [`Fault_frequency]). *)
