(** One world builder: a (policy, paging mechanism, workload) triple at a
    given geometry, built into a running platform.

    The perf matrix ({!Perf}), the long-horizon runner
    ([Snapshot.Longrun]), the [autarky_sim run]/[trace] commands and the
    paper experiments that build their own tables (fig6, fig8, the ORAM
    cache ablation) all build here, so a workload name means the same
    world to each of them.  Names are parsed once, from one table. *)

type policy = Baseline | Rate_limit | Clusters | Oram

type workload =
  | Ycsb  (** YCSB-C GETs over a scrambled Zipfian, on a kvstore *)
  | Kvstore  (** uniform GETs on the same kvstore *)
  | Uthash  (** uthash lookups, one progress event each *)
  | Spellcheck
      (** Zipfian checks of a dictionary of [32 * heap_pages] words *)
  | Jpeg
      (** block-row decodes: a code-page workload whose few pages fit
          any EPC allowance, so it takes no faults once warm *)
  | Fontrender
      (** glyph renders: a code-page workload that, like [Jpeg], fits
          any EPC allowance *)
  | Kernel of Workloads.Kernels.spec
      (** one progress unit of a Fig. 7 kernel per op, its working set
          reserved in the enclave past the heap *)

val policy_name : policy -> string
(** ["baseline"], ["rate-limit"], ["clusters"], ["oram"]. *)

val policy_of_name : string -> policy option

val workload_name : workload -> string
(** ["ycsb"], ["kvstore"], ["uthash"], ["spellcheck"], ["jpeg"],
    ["fontrender"], or ["kernel:NAME"]. *)

val workload_of_name : string -> workload option
(** Inverse of {!workload_name}; [kernel:NAME] looks [NAME] up in
    {!Workloads.Kernels.suite}. *)

val workload_unit : workload -> string
(** What one op of the workload is, plural ("GETs", "lookups", ...). *)

val mech_name : Autarky.Pager.mech -> string
(** ["sgx1"] or ["sgx2"]. *)

val mech_of_name : string -> Autarky.Pager.mech option

val policies : policy list
val workloads : workload list
(** Every policy, and every workload of the name table (one [Kernel]
    per suite kernel). *)

type spec = {
  policy : policy;
  mech : Autarky.Pager.mech;
  epc_limit : int;  (** the enclave's EPC allowance, pages *)
  epc_frames : int;  (** the machine's EPC *)
  enclave_pages : int;  (** before a kernel's working set *)
  heap_pages : int;  (** the allocator heap (and the ORAM's data region) *)
  cluster_pages : int;  (** the allocator's cluster size *)
  budget : int;  (** the runtime's paging budget *)
  oram_cache_pages : int;
  oram_seed : int64;  (** the Path ORAM tree's RNG seed *)
  rate_limit : int;  (** faults allowed per progress unit *)
  trace : bool;  (** install a trace recorder before the enclave exists *)
}

val spec :
  ?mech:Autarky.Pager.mech ->
  ?epc_limit:int ->
  ?epc_frames:int ->
  ?enclave_pages:int ->
  ?heap_pages:int ->
  ?cluster_pages:int ->
  ?budget:int ->
  ?oram_cache_pages:int ->
  ?oram_seed:int64 ->
  ?rate_limit:int ->
  ?trace:bool ->
  policy -> spec
(** A spec with the perf cell's values for whatever is not given:
    SGXv1, a 1,024-page EPC allowance on a machine with 1,024 frames
    more, an enclave of 8x and a heap of 4x the allowance, 10-page
    clusters, a budget of [max 64 (epc_limit - 256)], an ORAM cache of
    2/3 of the allowance (at least 64 pages, at most the budget, so the
    pinned cache always fits it), ORAM tree seed 9, 512 faults per
    progress unit and no trace. *)

type t = {
  sys : System.t;
  heap : Autarky.Allocator.t;
  vm : Workloads.Vm.t;  (** ORAM-instrumented under [Oram]; its
                            progress events reach the rate limiter *)
  finish : unit -> unit;
}

val create : spec -> t
(** The two-phase form, for callers that build their own workload
    table from [vm] and [heap]: the platform, the heap, and the policy's
    half that must exist before the table (the rate limiter; the ORAM
    tree and its pinned cache).  Call [finish] once the table is built:
    it installs the policy and, under [Rate_limit] and [Clusters], marks
    the allocated heap enclave-managed.  Raises [Invalid_argument] as
    {!System.create} and {!System.reserve} do. *)

val build :
  ?on_system:(System.t -> unit) -> spec -> workload -> seed:int ->
  System.t * (int -> unit)
(** [create], the workload (its data built from [Metrics.Rng] seed
    [seed]), and [finish]: returns the system and the op, which takes
    the op's 1-based index.  [on_system] runs as soon as the platform
    exists, before anything else is built (attach trace sinks there).
    A [Kernel] grows the enclave by its working set, reserved after the
    heap and managed with it under [Rate_limit] and [Clusters]; the
    build touches its hot subset once. *)
