(** The deterministic virtual-time serving loop.

    Multi-tenant request serving as a discrete-event simulation: load
    generators (open-loop Poisson or closed-loop clients) put arrivals
    on a pending-event heap; each admitted request executes to
    completion inside its tenant's enclave, its service time measured on
    the shared machine clock and folded back into the event timeline.
    A global EPC arbiter periodically rebalances vEPC frames between
    tenant VMs based on fault pressure ({!Hypervisor.Vmm.rebalance} —
    cooperative ballooning), and an {!Autarky.Restart_monitor} gates
    enclave restarts after terminations.

    Everything is keyed off the scenario seed; no wall-clock input
    reaches the loop, so the same [(configs, params)] always produces
    the same result — including the trace digest. *)

(** Hypervisor-attack injection for churn scenarios: before every
    [atk_every]-th arrival of tenant [atk_victim], evict one resident
    ground-truth page of the key about to be served
    ({!Hypervisor.Vmm.hypervisor_evict}).  A self-paging enclave detects
    the next touch and terminates — driving the restart/refusal path. *)
type attack = { atk_victim : string; atk_every : int }

type arbiter = {
  arb_period : float;
      (** tick every [arb_period] x (largest tenant mean service time) *)
  arb_step : int;  (** frames to move per rebalance *)
  arb_min_partition : int;  (** floor below which a VM never donates *)
  arb_threshold : int;
      (** minimum fault-pressure gap (faults per period) before moving *)
}

val default_arbiter : arbiter

type verdict = Served of int | Shed | Deadline_missed
(** Outcome of one arrival: completed at the given virtual cycle, shed
    by admission control (queue full, refused tenant, or lost to a
    termination), or dropped because its queueing delay exceeded the
    tenant's deadline. *)

(** What a defense controller (or a scripted adversary) sees of the
    running fleet.  [cx_emit] writes a {!Trace.Event.Serve} event with
    actor [Harness] into the shared trace. *)
type hook_ctx = {
  cx_tenants : Tenant.t array;
  cx_machine : Sgx.Machine.t;
  cx_hv : Hypervisor.Vmm.t;
  cx_monitor : Autarky.Restart_monitor.t;
  cx_emit : tenant:string -> action:string -> detail:int -> unit;
}

(** The defense-orchestration seam.  All callbacks run synchronously
    inside the event loop, outside any enclave entry — i.e. at request
    boundaries, where {!Tenant.set_policy} is legal.  [h_on_tick] fires
    on a dedicated [Defense_tick] event scheduled every [h_period]
    multiples of the largest calibrated mean service time;
    [h_before_request]/[h_after_request] bracket every executed request
    ([tenant] is the index into [cx_tenants]).  [h_on_start] runs once,
    after calibration and before any arrival. *)
type hooks = {
  h_period : float;
  h_on_start : hook_ctx -> unit;
  h_on_tick : hook_ctx -> at:int -> unit;
  h_before_request : hook_ctx -> at:int -> tenant:int -> key:int -> unit;
  h_after_request : hook_ctx -> at:int -> tenant:int -> verdict:verdict -> unit;
}

type params = {
  p_seed : int;
  p_spare_frames : int;  (** machine EPC beyond the summed partitions *)
  p_calibration : int;
      (** warmup requests per tenant used to calibrate the mean service
          time (excluded from all statistics) *)
  p_max_restarts : int;  (** restart-monitor cutoff *)
  p_arbiter : arbiter option;  (** [None] disables rebalancing *)
  p_attack : attack option;
  p_trace : bool;  (** record a trace and compute its digest *)
  p_sketch : bool;
      (** latency accounting via {!Metrics.Sketch} (O(1) memory per
          tenant) instead of exact {!Metrics.Stats}.  Default [false];
          [Serve.Driver.run] always turns it on *)
  p_hooks : hooks option;
      (** [None] (the default) leaves the event loop — and its trace
          digest — bit-for-bit identical to the hook-free engine *)
}

val default_params : seed:int -> params

type result = {
  r_tenants : Tenant.t array;
  r_machine : Sgx.Machine.t;
  r_monitor : Autarky.Restart_monitor.t;
  r_end_cycle : int;  (** virtual cycle of the last completion/event *)
  r_arbiter_moves : int;
  r_digest : string option;  (** trace digest, when [p_trace] *)
}

val run : ?params:params -> Tenant.config list -> result
(** Boot every tenant on one shared machine (one VM per tenant),
    calibrate, generate and serve the configured request streams, and
    return the tenants with their accumulated statistics.  Raises
    [Invalid_argument] on an empty tenant list.  Exactly
    [start] + [step]-until-false + [finish]. *)

(** {1 Stepped execution}

    The same loop, exposed one event at a time so a driver can pause it
    at a quiescent point — between two events no enclave is entered and
    no measurement span is open, which is where {!Snapshot} captures a
    fleet.  [run] is the closed composition; interleaving anything
    stateful between [step] calls voids the bit-for-bit guarantee only
    if it touches the machine. *)

type state
(** A booted fleet mid-run: tenants calibrated, initial arrivals
    scheduled, trace recorder (when [p_trace]) attached. *)

val start : ?params:params -> Tenant.config list -> state
val step : state -> bool
(** Process exactly one pending event; [false] when none remain. *)

val finish : state -> result
(** Emit the per-tenant "done" trace events and close out the result.
    Call once, after the final [step]. *)

val footprint : state -> Harness.Footprint.t
(** The memory ledger of the fleet: the machine's structures, then each
    tenant's ({!Tenant.footprint}), reconciled against the words
    reachable from [state].  Reads the heap only, so it may run between
    any two {!step}s without moving a modeled figure. *)

val machine_of : state -> Sgx.Machine.t
val end_cycle : state -> int
(** Virtual cycle of the latest event processed so far. *)
