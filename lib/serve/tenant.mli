(** One serving tenant: a VM with a static vEPC partition hosting one
    self-paging enclave, its protection policy, its workload, and its
    virtual-time server state.

    Tenants are deliberately self-contained: the engine drives them only
    through {!request}, {!reboot} and the counters, so the discrete-event
    loop never reaches into policy or workload internals.  The build is
    replayed from a fixed seed on {!reboot}, modelling an attested
    restart of the same enclave image. *)

type workload_kind = Kvstore | Spellcheck | Uthash
type policy_kind = Rate_limit | Clusters | Oram | Preload

val workload_name : workload_kind -> string
val policy_name : policy_kind -> string

val policy_of_name : string -> policy_kind option
(** Inverse of {!policy_name} ("rate-limit", "clusters", "oram",
    "preload"). *)

(** How requests arrive.  [Open_loop] issues Poisson arrivals at
    [load] times the tenant's calibrated service rate (load > 1 is an
    overload); [Closed_loop] models [clients] clients that each wait for
    their response and think for [think] mean service times before the
    next request.  [Heavy_tail] is open-loop with Pareto inter-arrival
    gaps (tail index [alpha > 1], same mean rate as [Open_loop] at equal
    [load] — see {!Workloads.Loadgen.pareto_gap}); [Diurnal] is
    open-loop with the arrival rate sinusoidally modulated by
    [1 ± depth] over a period of [period] calibrated mean service
    times. *)
type generator =
  | Open_loop of { load : float }
  | Closed_loop of { clients : int; think : float }
  | Heavy_tail of { load : float; alpha : float }
  | Diurnal of { load : float; depth : float; period : float }

val generator_name : generator -> string

type config = {
  name : string;
  workload : workload_kind;
  policy : policy_kind;
  partition_frames : int;  (** the VM's static vEPC slice *)
  epc_limit : int;  (** the enclave process's initial EPC allowance *)
  enclave_pages : int;
  heap_pages : int;
  generator : generator;
  queue_capacity : int;  (** admission-queue bound; beyond it requests shed *)
  deadline : float option;
      (** queueing deadline in multiples of the calibrated mean service
          time; requests that would start later are dropped *)
  requests : int;  (** arrivals to generate for this tenant *)
  arrive_after : int;
      (** churn: virtual cycle at which this tenant joins the fleet.
          [0] (the common case) boots it with the scenario; [> 0] parks
          it — the VM partition is reserved up front (static vEPC
          partitioning) but the enclave builds at the join event, on the
          timeline, as cold-start attestation cost *)
  depart_after : int option;
      (** churn: virtual cycle at which the tenant leaves.  Its enclave
          and guest process are destroyed; arrivals already scheduled
          past that point are dropped without being counted *)
}

(** Tenant lifecycle: [Parked] (created but not yet joined — churn),
    [Active], [Refused] (restart monitor refused re-attestation; every
    later request sheds), [Departed] (churn exit). *)
type state = Parked | Active | Refused | Departed

type t

val create :
  ?sketch:bool ->
  machine:Sgx.Machine.t -> hv:Hypervisor.Vmm.t -> vm:Hypervisor.Vmm.vm ->
  seed_base:int -> config -> t
(** Boot the tenant's enclave inside [vm] and build its workload.  All
    randomness (build layout, request keys, arrival processes) derives
    from [seed_base].  [sketch] (default false) switches latency
    accounting from the exact {!Metrics.Stats} accumulator to a
    {!Metrics.Sketch} — O(1) memory per tenant, the fleet-scale path.
    When [config.arrive_after > 0] the tenant is created [Parked]: no
    enclave is built until {!boot}. *)

val footprint : t -> Metrics.Words.t -> unit
(** Count the live incarnation's platform slice ({!Harness.System.footprint}),
    its heap allocator, workload tables and ORAM parts, and the latency
    sketch ({!Harness.Footprint}). *)

val config : t -> config
val name : t -> string
val sys : t -> Harness.System.t
val proc : t -> Sim_os.Kernel.proc
val vm : t -> Hypervisor.Vmm.vm
val dist : t -> Metrics.Dist.t
val key_rng : t -> Metrics.Rng.t
val gen_rng : t -> Metrics.Rng.t

val state : t -> state
val set_refused : t -> unit

val free_at : t -> int
val set_free_at : t -> int -> unit
val queue : t -> Ring.t
(** Completion cycles of admitted, not-yet-finished requests (the
    virtual-time admission queue).  Capacity is
    [max 1 config.queue_capacity]; the engine's admission check sheds
    before the ring can overflow. *)

val record_latency : t -> cycles:int -> unit
(** Record one served-request latency into whichever accounting backend
    this tenant uses (sketch or exact stats).  Allocation-free on the
    sketch path. *)

val sketch : t -> Metrics.Sketch.t option
(** The streaming sketch, when this tenant was created with
    [~sketch:true] — the fleet roll-up merges these. *)

val latency_summary : t -> Metrics.Stats.summary
(** Latency summary from the active backend: sketch-derived (within
    {!Metrics.Sketch.relative_error}) or exact. *)

val boot_cycles : t -> int
(** Cold-start cost (build + attestation, modeled cycles) charged at
    this tenant's churn join; 0 for tenants present from the start. *)

val set_boot_cycles : t -> int -> unit

val svc_mean : t -> float
val set_svc_mean : t -> float -> unit

(** {1 Live policy control (defense escalation)} *)

val active_policy : t -> policy_kind
(** The policy currently protecting the tenant.  Starts as
    [config.policy]; {!set_policy} moves it, and a {!reboot} comes back
    up under the escalated policy, not the configured one. *)

val set_policy : t -> policy_kind -> unit
(** Switch the live enclave to a new protection policy.  Must be called
    at a request boundary; state is handed off sealed — a switch onto
    ORAM evicts the resident working set through the pager's
    seal-and-evict path and charges it into the oblivious store, a
    switch off ORAM flushes the cache back to the tree first.  A reboot
    preserves the switched policy.  No-op when [kind] is already
    active.

    @raise Invalid_argument when called mid-request (the no-switch-
    mid-request invariant), or when an escalation to [Preload] does not
    fit the pager budget — in the latter case the previous policy is
    reinstalled before raising, so the tenant keeps serving.  May raise
    {!Sgx.Types.Enclave_terminated} if the handoff itself trips a
    policy or hardware kill. *)

val policy_switches : t -> int
(** Completed {!set_policy} transitions (lifetime, across reboots). *)

val heap_region : t -> Sgx.Types.vpage * int
(** [(base_vpage, heap_pages)] of the protected data region — the
    attack surface adversary waves aim at. *)

val resident_heap_pages : t -> Sgx.Types.vpage list
(** Heap pages currently EPC-resident according to the runtime's pager
    (empty under ORAM, where the heap lives in the oblivious store). *)

val faults : t -> int
(** Page faults handled by the tenant's runtime, cumulative across
    incarnations. *)

val next_key : t -> int
(** Draw the next serving key (fixed-seed stream). *)

val calib_key : t -> int
(** Draw a calibration key (separate stream, so calibration does not
    perturb the serving key sequence). *)

val request : t -> key:int -> unit
(** Execute one request inside the enclave (EENTER/EEXIT round trip).
    Raises {!Sgx.Types.Enclave_terminated} if a policy or the hardware
    kills the enclave mid-request. *)

val probe_pages : t -> key:int -> int list
(** Ground-truth pages [request] would touch for [key] (empty when the
    workload offers no per-key oracle) — used by the hypervisor-attack
    injection in churn tests. *)

val reboot : t -> unit
(** Tear the dead incarnation down ({!Hypervisor.Vmm.destroy_guest_proc})
    and boot a fresh one from the same build seed. *)

val boot : t -> unit
(** Churn join: build the enclave of a [Parked] tenant and mark it
    [Active].  The caller wraps this in a clock span so the build cost
    lands on the virtual timeline (see {!boot_cycles}).
    @raise Invalid_argument when the tenant is not [Parked]. *)

val depart : t -> unit
(** Churn exit: destroy the guest process (if any), clear the admission
    queue and mark the tenant [Departed].  Counters and latency
    accounting survive for the final report.  Idempotent. *)

(** {1 Engine-maintained accounting} *)

val arrivals : t -> int
val served : t -> int
val shed : t -> int
val missed : t -> int
val terminations : t -> int
val restarts : t -> int

val incr_arrivals : t -> unit
val incr_served : t -> unit
val incr_shed : t -> unit
val incr_missed : t -> unit
val incr_terminations : t -> unit

val balloon_released_pages : t -> int
(** Enclave pages this tenant released through balloon upcalls. *)

val balloon_upcalls : t -> int
(** Balloon upcalls delivered to this tenant (lifetime) — memory-
    pressure signal for the defense controller. *)

val balloon_in_frames : t -> int
(** EPC frames the arbiter moved {e to} this tenant. *)

val add_balloon_in : t -> int -> unit

val faults_last_seen : t -> int
val set_faults_last_seen : t -> int -> unit
(** The arbiter's bookmark for computing per-period fault pressure. *)
