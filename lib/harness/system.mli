(** Wiring: one simulated platform = hardware + untrusted OS + enclave
    (+ the Autarky runtime for self-paging enclaves), with helpers to
    carve the enclave's address space and route workload memory traffic.

    Typical experiment shape:
    {[
      let sys = System.create ~epc_frames ~epc_limit ~enclave_pages
                  ~self_paging:true ~budget () in
      let heap = System.allocator sys ~pages ~cluster_pages:10 in
      (* build the workload via [System.vm sys ()] and [heap] ... *)
      System.pin sys code_pages;          (* pinned enclave-managed *)
      System.manage sys data_pages;       (* demand-paged enclave-managed *)
      Runtime.set_policy (System.runtime_exn sys) policy;
      Measure.run sys (fun () -> ...)
    ]} *)

type t

val create :
  ?model:Metrics.Cost_model.t ->
  ?mode:Sgx.Machine.transition_mode ->
  ?mech:Autarky.Pager.mech ->
  ?budget:int ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?wrap_os:(Autarky.Os_iface.t -> Autarky.Os_iface.t) ->
  epc_frames:int -> epc_limit:int -> enclave_pages:int -> self_paging:bool ->
  unit -> t
(** Build the platform, create and populate the enclave (all pages
    zero-initialized; pages beyond [epc_limit] start in the backing
    store), EINIT it, and — for a self-paging enclave — install the
    Autarky runtime with the given paging [mech] (default [`Sgx1]) and
    EPC [budget] (default [epc_limit - 64], leaving the OS working
    room).

    [trace] (default [false]) installs a {!Trace.Recorder} on the
    machine before the enclave is built, so every layer's events —
    including enclave construction and initial paging — are recorded;
    [trace_capacity] bounds the recorder's ring (sinks attached via
    {!tracer} still see the complete stream).

    [wrap_os] interposes on the {!Autarky.Os_iface.t} record before it
    is handed to the runtime — the hook through which the Byzantine-OS
    fault-injection layer ([Inject.Injector.wrap_os]) intercepts the
    kernel/runtime boundary.  Only meaningful for self-paging
    enclaves.

    @raise Invalid_argument naming [epc_frames], [epc_limit] or
    [enclave_pages] when it is not positive. *)

val attach :
  ?mech:Autarky.Pager.mech ->
  ?budget:int ->
  ?wrap_os:(Autarky.Os_iface.t -> Autarky.Os_iface.t) ->
  machine:Sgx.Machine.t -> os:Sim_os.Kernel.t -> proc:Sim_os.Kernel.proc ->
  unit -> t
(** Bring an already-ECREATEd (empty, un-EINITed) process up into a
    full platform slice on an existing machine and kernel: populate the
    initial image, install the Autarky runtime when the enclave carries
    the self-paging attribute, EINIT, and wire a CPU.  [create] is
    [attach] over a freshly built machine and kernel; multi-tenant
    drivers use [attach] directly to host several enclaves — e.g.
    hypervisor guest processes from {!Hypervisor.Vmm.create_guest_proc}
    — on one shared machine.  Any recorder already installed on
    [machine] is picked up as this system's tracer. *)

val machine : t -> Sgx.Machine.t
val os : t -> Sim_os.Kernel.t
val proc : t -> Sim_os.Kernel.proc
val enclave : t -> Sgx.Enclave.t
val cpu : t -> Sgx.Cpu.t
val runtime : t -> Autarky.Runtime.t option
val runtime_exn : t -> Autarky.Runtime.t
val clock : t -> Metrics.Clock.t
val counters : t -> Metrics.Counters.t

val tracer : t -> Trace.Recorder.t option
val tracer_exn : t -> Trace.Recorder.t
(** @raise Invalid_argument when the system was built without [~trace:true]. *)

val mark : t -> string -> unit
(** Emit a harness phase marker into the trace (no-op when tracing is
    off) — lets offline analysis segment setup from measurement. *)

val reserve : t -> pages:int -> Sgx.Types.vpage
(** Carve a fresh region of the enclave's address space.

    @raise Invalid_argument naming [pages] when it is not positive, or
    when the region would run past the enclave's end. *)

val allocator : t -> pages:int -> cluster_pages:int -> Autarky.Allocator.t
(** Reserve a region and wrap it in the auto-clustering allocator. *)

val clusters_of : Autarky.Allocator.t -> Autarky.Clusters.t

val vm :
  t ->
  ?instrument:(Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit) ->
  ?on_progress:(unit -> unit) ->
  unit -> Workloads.Vm.t
(** The workload-facing memory interface.  [instrument] replaces the
    plain CPU path (ORAM instrumentation); [on_progress] receives the
    workload's progress events (rate-limit wiring). *)

val pin : t -> Sgx.Types.vpage list -> unit
(** Mark pages enclave-managed and {!fetch_resident} them (code, stack,
    runtime metadata, ORAM cache). *)

val fetch_resident : t -> Sgx.Types.vpage list -> unit
(** Fetch the non-resident ones of already enclave-managed pages, 64 at
    a time, each batch making room by evicting the FIFO-oldest
    residents: how {!pin} and a live ORAM re-escalation bring a pinned
    region back. *)

val manage : t -> Sgx.Types.vpage list -> unit
(** Mark pages enclave-managed without prefetching (demand-paged data). *)

val footprint : t -> Metrics.Words.t -> unit
(** Count the kernel process's structures and, when self-paging, the
    runtime's ({!Sim_os.Kernel.proc_footprint},
    {!Autarky.Runtime.footprint}). *)

val run_in_enclave : t -> (unit -> 'a) -> 'a
(** EENTER, run, EEXIT — one enclave entry around a workload phase. *)
