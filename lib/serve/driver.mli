(** Serving scenarios and the SLO report (BENCH_serve.json).

    A run is [members] independent copies of one scenario, each on its
    own machine.  The report contains only virtual quantities — modeled
    cycles, request counts, rates over the modeled clock — so the JSON
    emitted for a given (scenario, seed, members) is byte-identical run
    to run and at any worker count. *)

type scenario = Default | Fleet
(** Which committed scenario a report describes: its ["scenario"] label
    (["default"] or ["fleet"]), and what {!check} rebuilds —
    {!default_scenario} or {!fleet_scenario} at the report's
    [tenants_n]. *)

type tenant_report = {
  tr_member : int;  (** index of the member this tenant ran in *)
  tr_name : string;
  tr_workload : string;
  tr_policy : string;
  tr_generator : string;
  tr_arrivals : int;
  tr_served : int;
  tr_shed : int;
  tr_missed : int;
  tr_terminations : int;
  tr_restarts : int;
  tr_refused : bool;
  tr_departed : bool;  (** churn: tenant left before the end of the run *)
  tr_arrive_after : int;  (** churn join cycle; [0] = present from boot *)
  tr_depart_after : int;  (** configured departure cycle; [-1] = never *)
  tr_boot_cycles : int;
      (** cold-start (build + attestation) cycles charged at the churn
          join; [0] for tenants present from the start *)
  tr_faults : int;
  tr_svc_mean_cycles : float;
  tr_throughput_rps : float;  (** served requests per virtual second *)
  tr_shed_rate : float;  (** (shed + missed) / arrivals *)
  tr_latency : Metrics.Stats.summary;
      (** request latency in virtual cycles, from the tenant's
          {!Metrics.Sketch} (within {!Metrics.Sketch.relative_error}) *)
  tr_sketch : Metrics.Sketch.t;  (** the sketch the fleet latency pools *)
}

type member_report = {
  mr_member : int;
  mr_seed : int;
  mr_end_cycle : int;  (** virtual cycle of the member's last event *)
  mr_virtual_seconds : float;
  mr_arbiter_moves : int;
  mr_digest : string option;  (** trace digest, when the params traced *)
}

type report = {
  rp_scenario : scenario;
  rp_quick : bool;
  rp_seed : int;  (** the root seed: member 0's *)
  rp_tenants_n : int;  (** tenants per member *)
  rp_members : member_report list;  (** ordered by member index *)
  rp_tenants : tenant_report list;
      (** members x tenants_n rows, member-major, in config order *)
  rp_arrivals : int;
  rp_served : int;
  rp_shed : int;
  rp_missed : int;
  rp_joins : int;  (** tenants that joined after cycle 0 (churn) *)
  rp_departures : int;
  rp_refused : int;
  rp_boot_cycles_total : int;  (** summed churn cold-start cost *)
  rp_fleet_latency : Metrics.Stats.summary;
      (** every row's sketch pooled by bucket addition *)
}

val default_scenario : quick:bool -> Tenant.config list
(** Three tenants on one machine — [kv] (kvstore / clusters / moderate
    open loop), [spell] (spellcheck / ORAM / closed loop) and [hash]
    (uthash / rate-limit / overloaded open loop, bounded queue +
    deadline). *)

val fleet_scenario : tenants:int -> quick:bool -> Tenant.config list
(** The committed benchmark scenario: a fixed per-index mix of
    kv/clusters open-loop tenants, heavy-tailed (Pareto) uthash tenants,
    diurnal late joiners (churn arrivals with cold-start attestation
    cost), a closed-loop spellcheck population, and overloaded tenants
    that depart mid-run.  Full mode generates ~16x the quick-mode
    arrivals.
    @raise Invalid_argument when [tenants <= 0]. *)

val params : seed:int -> no_arbiter:bool -> Engine.params
(** The engine parameters of every CLI, bench and [--check] run:
    {!Engine.default_params} with the trace recorder off.  Tracing keeps
    memory bounded (a 65,536-event ring and a streaming digest sink) but
    costs host time: it about triples a full 100-tenant run and doubles
    a quick one. *)

val to_json : report -> string
(** Stable schema ["autarky-serve/3"]: scenario, sizes, one row per
    member ([trace_digest] only when the run traced), fleet totals
    (including churn counts), the pooled fleet latency with its
    [rel_error] bound, and one row per (member, tenant). *)

val print_report : report -> unit

val run :
  ?members:int -> ?jobs:int -> ?out:string -> ?print:bool ->
  scenario:scenario -> quick:bool -> params:Engine.params ->
  Tenant.config list -> report
(** Run [members] (default 1) copies of the scenario [cfgs].  Member 0
    runs at [params.p_seed], member [i >= 1] at
    [Parallel.Pool.shard_seed ~root:params.p_seed ~shard:i]; members
    shard over a domain pool of [jobs] workers (default 1; [<= 0]
    means {!Parallel.Pool.default_jobs}) and merge in member order.
    Every member runs with [p_sketch = true]; everything else in
    [params] is used as given.  [scenario] and [quick] label the
    report.  Prints the report unless [print = false] and writes the
    JSON to [out] when given.
    @raise Invalid_argument when [members <= 0]. *)

val footprint : unit -> Harness.Footprint.t * Harness.Footprint.t
(** The memory ledger of one member of the committed 100-tenant
    {!fleet_scenario} in quick mode at seed 1, with the parameters of
    {!run}: once after {!Engine.start}, once after the run. *)

val check : baseline:string -> ?tolerance:float -> ?jobs:int -> unit -> bool
(** The serve regression gate ([autarky_sim serve --check]): validate
    the committed [autarky-serve/3] baseline (schema, scenario,
    positive sizes, exact arrival conservation per row and in total,
    pooled latency count = served), then re-run its scenario in quick
    mode at the baseline's (seed, tenants_n, members) and compare the
    intensive metrics — fleet p50/p95/p99/mean latency and the overall
    shed rate — within [tolerance] (default 0.25) relative drift.
    Prints a verdict table; a malformed baseline prints a
    [CHECK FAILED] line.  [false] on any failure, never an exception. *)
