type t = {
  sys_machine : Sgx.Machine.t;
  sys_os : Sim_os.Kernel.t;
  sys_proc : Sim_os.Kernel.proc;
  sys_cpu : Sgx.Cpu.t;
  sys_runtime : Autarky.Runtime.t option;
  sys_tracer : Trace.Recorder.t option;
  mutable next_region : Sgx.Types.vpage;
  region_end : Sgx.Types.vpage;
}

let os_iface os proc : Autarky.Os_iface.t =
  {
    set_enclave_managed = Sim_os.Kernel.ay_set_enclave_managed os proc;
    set_os_managed = Sim_os.Kernel.ay_set_os_managed os proc;
    fetch_pages = Sim_os.Kernel.ay_fetch_pages os proc;
    fetch_page = Sim_os.Kernel.ay_fetch_page os proc;
    evict_pages = Sim_os.Kernel.ay_evict_pages os proc;
    aug_pages = Sim_os.Kernel.ay_aug_pages os proc;
    aug_page = Sim_os.Kernel.ay_aug_page os proc;
    remove_pages = Sim_os.Kernel.ay_remove_pages os proc;
    blob_store = Sim_os.Kernel.blob_store os proc;
    blob_load = Sim_os.Kernel.blob_load os proc;
    page_in_os_managed = Sim_os.Kernel.page_in_os_managed os proc;
    epc_headroom = (fun () -> Sim_os.Kernel.epc_headroom os proc);
  }

(* Bring an ECREATEd (but still empty) process up into a runnable
   platform slice: populate the initial image, install the Autarky
   runtime when the enclave is self-paging, EINIT, and wire a CPU.
   Shared by [create] (which builds the machine and OS itself) and by
   multi-tenant drivers that carve many enclaves out of one machine
   (hypervisor guests — see [Serve.Tenant]). *)
let attach ?(mech = `Sgx1) ?budget ?wrap_os ~machine ~os ~proc () =
  let enclave = Sim_os.Kernel.enclave proc in
  let enclave_pages = enclave.Sgx.Enclave.size_pages in
  let epc_limit = Sim_os.Kernel.epc_limit proc in
  (* Populate the whole initial image from one zero page: EADD copies
     it into each resident frame, and pages beyond the EPC allowance
     land in the backing store, deferred, sharing the store's zero
     page. *)
  let zero = Sgx.Page_data.create () in
  for i = 0 to enclave_pages - 1 do
    Sim_os.Kernel.add_initial_page os proc ~vpage:(enclave.base_vpage + i)
      ~data:zero ~perms:Sgx.Types.perms_rwx
  done;
  let runtime =
    if enclave.Sgx.Enclave.self_paging then begin
      let budget = Option.value budget ~default:(max 1 (epc_limit - 64)) in
      (* [wrap_os] interposes on the kernel/runtime boundary — the
         fault-injection layer's hook. *)
      let iface =
        match wrap_os with
        | None -> os_iface os proc
        | Some w -> w (os_iface os proc)
      in
      let rt = Autarky.Runtime.create ~machine ~enclave ~os:iface ~mech ~budget in
      (* Cooperative ballooning: the OS's memory-pressure upcall lands in
         the runtime, which applies the active policy's deflation rules. *)
      Sim_os.Kernel.set_balloon_handler os proc (fun pages ->
          Autarky.Runtime.balloon_release rt ~pages);
      Some rt
    end
    else None
  in
  Sim_os.Kernel.finalize os proc;
  let cpu =
    Sgx.Cpu.create ~machine ~page_table:(Sim_os.Kernel.page_table proc) ~enclave
      ~os:(Sim_os.Kernel.os_callbacks os) ()
  in
  {
    sys_machine = machine;
    sys_os = os;
    sys_proc = proc;
    sys_cpu = cpu;
    sys_runtime = runtime;
    sys_tracer = Sgx.Machine.tracer machine;
    next_region = enclave.base_vpage;
    region_end = enclave.base_vpage + enclave_pages;
  }

let create ?model ?(mode = Sgx.Machine.Full_exits) ?(mech = `Sgx1) ?budget
    ?(trace = false) ?trace_capacity ?wrap_os ~epc_frames ~epc_limit
    ~enclave_pages ~self_paging () =
  assert (epc_frames > 0 && epc_limit > 0 && enclave_pages > 0);
  let machine =
    match model with
    | Some m -> Sgx.Machine.create ~model:m ~mode ~epc_frames ()
    | None -> Sgx.Machine.create ~mode ~epc_frames ()
  in
  (* Install the recorder before the OS and enclave exist so enclave
     construction and initial paging are part of the trace. *)
  if trace then begin
    let tr =
      Trace.Recorder.create ?capacity:trace_capacity
        ~clock:Sgx.Machine.(machine.clock) ()
    in
    Sgx.Machine.set_tracer machine (Some tr)
  end;
  let os = Sim_os.Kernel.create machine in
  let proc =
    Sim_os.Kernel.create_proc os ~size_pages:enclave_pages ~self_paging
      ~epc_limit
  in
  attach ~mech ?budget ?wrap_os ~machine ~os ~proc ()

let machine t = t.sys_machine
let os t = t.sys_os
let proc t = t.sys_proc
let enclave t = Sim_os.Kernel.enclave t.sys_proc
let cpu t = t.sys_cpu
let runtime t = t.sys_runtime

let runtime_exn t =
  match t.sys_runtime with
  | Some rt -> rt
  | None -> invalid_arg "System.runtime_exn: not a self-paging enclave"

let clock t = Sgx.Machine.(t.sys_machine.clock)
let counters t = Sgx.Machine.counters t.sys_machine
let tracer t = t.sys_tracer

let tracer_exn t =
  match t.sys_tracer with
  | Some tr -> tr
  | None -> invalid_arg "System.tracer_exn: tracing not enabled (pass ~trace:true)"

let mark t name =
  match t.sys_tracer with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr
      ~enclave:(enclave t).Sgx.Enclave.id ~actor:Trace.Event.Harness
      (Trace.Event.Mark { name })

let reserve t ~pages =
  assert (pages > 0);
  if t.next_region + pages > t.region_end then
    invalid_arg
      (Printf.sprintf "System.reserve: enclave address space exhausted (%d > %d)"
         (t.next_region + pages) t.region_end);
  let base = t.next_region in
  t.next_region <- base + pages;
  base

let allocator t ~pages ~cluster_pages =
  let base = reserve t ~pages in
  let clusters = Autarky.Clusters.create () in
  Autarky.Allocator.create ~clusters ~base_vpage:base ~pages ~cluster_pages

let clusters_of alloc = Autarky.Allocator.clusters alloc

let vm t ?instrument ?(on_progress = fun () -> ()) () =
  let plain vaddr kind = Sgx.Cpu.access t.sys_cpu vaddr kind in
  let touch = Option.value instrument ~default:plain in
  {
    Workloads.Vm.read = (fun a -> touch a Sgx.Types.Read);
    write = (fun a -> touch a Sgx.Types.Write);
    exec = (fun a -> touch a Sgx.Types.Exec);
    compute = (fun c -> Sgx.Machine.charge t.sys_machine c);
    progress = on_progress;
  }

let chunks n lst =
  let rec go acc cur count = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if count = n then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (count + 1) rest
  in
  go [] [] 0 lst

let pin t pages =
  let rt = runtime_exn t in
  Autarky.Runtime.mark_enclave_managed rt pages;
  let pager = Autarky.Runtime.pager rt in
  let need = List.filter (fun p -> not (Autarky.Pager.resident pager p)) pages in
  List.iter
    (fun chunk ->
      Autarky.Pager.make_room pager ~incoming:(List.length chunk)
        ~victims:(fun () -> Autarky.Pager.oldest_residents pager 16);
      Autarky.Pager.fetch pager chunk)
    (chunks 64 need)

let manage t pages =
  let rt = runtime_exn t in
  Autarky.Runtime.mark_enclave_managed rt pages

let footprint t acc =
  Sim_os.Kernel.proc_footprint t.sys_proc acc;
  Option.iter (fun rt -> Autarky.Runtime.footprint rt acc) t.sys_runtime

let run_in_enclave t f =
  Sgx.Instructions.eenter_run t.sys_machine (enclave t) f
