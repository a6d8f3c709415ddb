(** The Autarky self-paging runtime (§5.2) — the trusted in-enclave layer
    that owns the enclave's memory management.

    The runtime installs itself as the enclave's exception entry point.
    Hardware (the modified ISA of §5.1) guarantees the handler runs on
    every page fault: the OS cannot resume silently.  The handler
    classifies the faulting page:

    {ul
    {- {b Enclave-managed and resident} — impossible without OS
       interference (unmap, A/D clearing, wrong mapping, forced
       eviction): treated as a controlled-channel attack; the enclave
       terminates.}
    {- {b Enclave-managed, not resident} — legitimate demand paging;
       dispatched to the configured {!policy}, which fetches a
       policy-defined page set (obscuring which page faulted) and evicts
       within the runtime's EPC budget.}
    {- {b OS-managed} — insensitive page (§5.2.1): the fault is forwarded
       to the OS pager and handled as ordinary demand paging.}
    {- {b Spurious entry} (no pending exception in the SSA) — re-entrancy
       attack (§5.3); the enclave terminates.}} *)

type vpage = Sgx.Types.vpage

(** A secure self-paging policy: how legitimate misses on
    enclave-managed pages are serviced, and how (if at all) the enclave
    cooperates with OS memory-pressure upcalls. *)
type policy = {
  pol_name : string;
  pol_on_miss : vpage -> Sgx.Types.ssa_fault -> unit;
  pol_balloon : int -> int;
      (** Ballooning upcall (§5.2.1): the OS asks for [n] pages back;
          the policy evicts what it can *without weakening its leak
          guarantees* (whole clusters, FIFO batches, or nothing at all —
          refusing is legitimate for pinned/ORAM policies whose pages are
          all sensitive) and returns the number of pages released. *)
  pol_footprint : Metrics.Words.t -> unit;
      (** Count the structures the policy built ({!Harness.Footprint}). *)
}

type t

val create :
  machine:Sgx.Machine.t -> enclave:Sgx.Enclave.t -> os:Os_iface.t ->
  mech:Pager.mech -> budget:int -> t
(** Build the runtime, its pager, and install the exception handler as
    the enclave's entry point.  The initial policy is pinned (§5.2: "any
    fault is regarded as an attack"). *)

val machine : t -> Sgx.Machine.t
val enclave : t -> Sgx.Enclave.t
val os : t -> Os_iface.t
val pager : t -> Pager.t
val policy : t -> policy
val set_policy : t -> policy -> unit

val pinned_policy : t -> policy
(** The default: every fault on an enclave-managed page terminates. *)

val balloon_release : t -> pages:int -> int
(** Handle an OS memory-pressure upcall by delegating to the installed
    policy's [pol_balloon]; returns the pages actually released. *)

val mark_enclave_managed : t -> vpage list -> unit
(** Claim pages for self-paging (ay_set_enclave_managed) and seed the
    pager's residence tracking from the OS's answer. *)

val mark_os_managed : t -> vpage list -> unit
val is_enclave_managed : t -> vpage -> bool
val faults_handled : t -> int

val footprint : t -> Metrics.Words.t -> unit
(** Count the enclave-managed window, the pager's windows and the
    installed policy's structures. *)
