(* One tenant = one VM (static vEPC partition) hosting one self-paging
   enclave that serves keyed requests from a fixed-seed distribution.

   A tenant owns everything below the request: the guest process, the
   Autarky runtime with the tenant's protection policy, the workload
   structure built inside the enclave, and the virtual-time server state
   (busy-until cycle, bounded admission queue, latency statistics).  The
   engine only ever sees [request], [reboot] and the counters.

   Rebuilding after a termination ([reboot]) replays the same build seed,
   so an attested restart produces a byte-identical enclave image — the
   restarted instance is the same program, which is what the restart
   monitor attests.  The *policy* is no longer fixed at boot: the defense
   controller may call [set_policy] at a request boundary, and a reboot
   comes back up under the escalated policy, not the configured one.

   The workload's memory traffic always flows through an indirect
   instrument cell ([sl_iref]): [None] is the plain CPU path (demand
   policies), [Some f] routes the protected region through the ORAM
   cache.  The indirection costs nothing in the model (no charge, no
   trace), which is what makes switching a live tenant onto ORAM — and
   back off it — possible without rebooting. *)

module System = Harness.System
module Vmm = Hypervisor.Vmm

type workload_kind = Kvstore | Spellcheck | Uthash
type policy_kind = Rate_limit | Clusters | Oram | Preload

let workload_name = function
  | Kvstore -> "kvstore"
  | Spellcheck -> "spellcheck"
  | Uthash -> "uthash"

let policy_name = function
  | Rate_limit -> "rate-limit"
  | Clusters -> "clusters"
  | Oram -> "oram"
  | Preload -> "preload"

let policy_of_name = function
  | "rate-limit" -> Some Rate_limit
  | "clusters" -> Some Clusters
  | "oram" -> Some Oram
  | "preload" -> Some Preload
  | _ -> None

type generator =
  | Open_loop of { load : float }
  | Closed_loop of { clients : int; think : float }
  | Heavy_tail of { load : float; alpha : float }
  | Diurnal of { load : float; depth : float; period : float }

let generator_name = function
  | Open_loop { load } -> Printf.sprintf "open(load=%.2f)" load
  | Closed_loop { clients; think } ->
    Printf.sprintf "closed(n=%d,think=%.1f)" clients think
  | Heavy_tail { load; alpha } ->
    Printf.sprintf "pareto(load=%.2f,alpha=%.1f)" load alpha
  | Diurnal { load; depth; period } ->
    Printf.sprintf "diurnal(load=%.2f,depth=%.2f,period=%.0f)" load depth period

type config = {
  name : string;
  workload : workload_kind;
  policy : policy_kind;
  partition_frames : int;
  epc_limit : int;
  enclave_pages : int;
  heap_pages : int;
  generator : generator;
  queue_capacity : int;
  deadline : float option;
  requests : int;
  arrive_after : int;
  depart_after : int option;
}

type oram_parts = {
  op_oram : Oram.Path_oram.t;
  op_cache : Autarky.Oram_cache.t;
  op_pol : Autarky.Policy_oram.t;
  op_cache_pages : Sgx.Types.vpage list;
}

type slice = {
  sl_sys : System.t;
  sl_proc : Sim_os.Kernel.proc;
  mutable sl_op : int -> unit;
  mutable sl_probe : int -> int list;
  mutable sl_tables : Metrics.Words.t -> unit;  (* the workload's footprint *)
  sl_heap : Autarky.Allocator.t;
  sl_epc_limit : int;  (* the allowance this incarnation booted with *)
  sl_iref : (Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit) option ref;
  sl_progress : (unit -> unit) ref;
  mutable sl_policy : policy_kind;
  mutable sl_managed : bool;  (* heap pages marked enclave-managed yet? *)
  (* Pre-allocated request thunk: [request] writes the key into the cell
     and passes the same closure to the enclave entry every time, so the
     served-request path allocates no per-call closure. *)
  sl_req_key : int ref;
  mutable sl_req_thunk : unit -> unit;
  (* ORAM machinery survives a de-escalation so a later re-escalation
     reuses the same (deterministically seeded) tree and cache. *)
  mutable sl_oram : oram_parts option;
}

type state = Parked | Active | Refused | Departed

type t = {
  cfg : config;
  machine : Sgx.Machine.t;
  hv : Vmm.t;
  vm : Vmm.vm;
  build_seed : int64;
  key_rng : Metrics.Rng.t;
  gen_rng : Metrics.Rng.t;
  calib_rng : Metrics.Rng.t;
  dist : Metrics.Dist.t;
  mutable slice : slice option;
  mutable active_policy : policy_kind;  (* survives reboots *)
  mutable in_request : bool;
  mutable policy_switches : int;
  mutable state : state;
  mutable free_at : int;
  queue : Ring.t;  (* completion cycles of admitted, unfinished requests *)
  lat : Metrics.Stats.t;
  lat_sketch : Metrics.Sketch.t option;
      (* [Some _] switches latency accounting from the store-every-sample
         [lat] to O(1) sketch state (the fleet-scale path). *)
  mutable boot_cycles : int;  (* cold-start cost of a churn join; 0 otherwise *)
  mutable svc_mean : float;
  mutable arrivals : int;
  mutable served : int;
  mutable shed : int;
  mutable missed : int;
  mutable terminations : int;
  mutable restarts : int;
  mutable faults_acc : int;  (* faults handled by previous incarnations *)
  mutable faults_last_seen : int;  (* arbiter's bookmark *)
  mutable balloon_released_pages : int;
  mutable balloon_in_frames : int;
  mutable balloon_upcalls : int;
}

let n_keys cfg =
  match cfg.workload with
  | Kvstore -> cfg.heap_pages * 3
  | Spellcheck -> cfg.heap_pages * 48
  | Uthash -> cfg.heap_pages * 12

let slice_exn t =
  match t.slice with
  | Some s -> s
  | None -> invalid_arg "Serve.Tenant: tenant has no live enclave"

let ensure_managed sl =
  if not sl.sl_managed then begin
    System.manage sl.sl_sys (Autarky.Allocator.allocated_pages sl.sl_heap);
    sl.sl_managed <- true
  end

(* Build the PathORAM tree, the pinned cache and the policy object.  The
   tree seed derives from the build seed alone, so an escalation after a
   reboot replays the identical structure. *)
let build_oram t sl =
  let sys = sl.sl_sys in
  let cfg = t.cfg in
  let cache_pages = max 32 (sl.sl_epc_limit / 2) in
  let cache_base = System.reserve sys ~pages:cache_pages in
  let oram =
    Oram.Path_oram.create ~clock:(System.clock sys)
      ~rng:(Metrics.Rng.create ~seed:(Int64.add t.build_seed 9L))
      ~n_blocks:cfg.heap_pages ()
  in
  let cache =
    Autarky.Oram_cache.create ~machine:t.machine ~enclave:(System.enclave sys)
      ~touch:(fun a k -> Sgx.Cpu.access (System.cpu sys) a k)
      ~oram
      ~data_base_vpage:(Autarky.Allocator.base_vpage sl.sl_heap)
      ~n_pages:cfg.heap_pages ~cache_base_vpage:cache_base
      ~capacity_pages:cache_pages ()
  in
  System.pin sys (List.init cache_pages (fun i -> cache_base + i));
  let pol =
    Autarky.Policy_oram.create ~runtime:(System.runtime_exn sys) ~cache
  in
  {
    op_oram = oram;
    op_cache = cache;
    op_pol = pol;
    op_cache_pages = List.init cache_pages (fun i -> cache_base + i);
  }

let oram_accessor sys pol =
  Autarky.Policy_oram.accessor pol ~fallback:(fun a k ->
      Sgx.Cpu.access (System.cpu sys) a k)

(* Bring previously evicted (still enclave-managed) cache pages back
   resident — the re-escalation counterpart of {!System.pin}. *)
let refetch_pinned sys pages =
  let pager = Autarky.Runtime.pager (System.runtime_exn sys) in
  let need =
    List.filter (fun p -> not (Autarky.Pager.resident pager p)) pages
  in
  let rec chunks n = function
    | [] -> []
    | l ->
      let rec take k acc = function
        | x :: tl when k > 0 -> take (k - 1) (x :: acc) tl
        | rest -> (List.rev acc, rest)
      in
      let c, rest = take n [] l in
      c :: chunks n rest
  in
  List.iter
    (fun chunk ->
      Autarky.Pager.make_room pager ~incoming:(List.length chunk)
        ~victims:(fun () -> Autarky.Pager.oldest_residents pager 16);
      Autarky.Pager.fetch pager chunk)
    (chunks 64 need)

(* Per-policy setup that must run *before* the workload is built (the
   rate limiter counts the build's progress events; the ORAM cache must
   intercept nothing during the build but its machinery is created
   up-front, exactly as the fixed-policy boot did).  Returns the finish
   step that runs after the workload exists. *)
let pre_install t sl kind =
  let sys = sl.sl_sys in
  let rt = System.runtime_exn sys in
  match kind with
  | Rate_limit ->
    let rl =
      Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:512 ()
    in
    sl.sl_progress := (fun () -> Autarky.Policy_rate_limit.progress rl);
    fun () ->
      Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
      ensure_managed sl
  | Clusters ->
    fun () ->
      let pc =
        Autarky.Policy_clusters.create ~runtime:rt
          ~clusters:(Autarky.Allocator.clusters sl.sl_heap)
      in
      Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
      ensure_managed sl
  | Preload ->
    fun () ->
      let pp =
        Autarky.Policy_preload.create ~runtime:rt
          ~pages:(Autarky.Allocator.allocated_pages sl.sl_heap) ()
      in
      Autarky.Runtime.set_policy rt (Autarky.Policy_preload.policy pp);
      ensure_managed sl;
      Autarky.Policy_preload.preload pp
  | Oram ->
    let parts = build_oram t sl in
    sl.sl_oram <- Some parts;
    sl.sl_iref := Some (oram_accessor sys parts.op_pol);
    fun () ->
      Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy parts.op_pol)

(* Live policy switch on an already-serving slice.  The caller
   ([set_policy]) guarantees we are at a request boundary. *)
let switch_policy t sl ~from_ ~to_ =
  let sys = sl.sl_sys in
  let rt = System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let install kind =
    match kind with
    | Rate_limit ->
      let rl =
        Autarky.Policy_rate_limit.create ~runtime:rt ~max_faults_per_unit:512 ()
      in
      sl.sl_progress := (fun () -> Autarky.Policy_rate_limit.progress rl);
      Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
      ensure_managed sl
    | Clusters ->
      let pc =
        Autarky.Policy_clusters.create ~runtime:rt
          ~clusters:(Autarky.Allocator.clusters sl.sl_heap)
      in
      Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
      ensure_managed sl
    | Preload ->
      (* May raise Invalid_argument when the set does not fit the
         budget — the caller rolls back to [from_]. *)
      let pp =
        Autarky.Policy_preload.create ~runtime:rt
          ~pages:(Autarky.Allocator.allocated_pages sl.sl_heap) ()
      in
      Autarky.Runtime.set_policy rt (Autarky.Policy_preload.policy pp);
      ensure_managed sl;
      Autarky.Policy_preload.preload pp
    | Oram ->
      (* Sealed state handoff: every resident heap page leaves the EPC
         through the pager's seal-and-evict path, then the working set
         is charged into the oblivious store, block by block.  The
         previous policy may have ballooned the pager budget down toward
         its floor; the escalation rebuilds the memory plan, so restore
         the boot budget first — pinning the cache into a 16-page budget
         would evict the cache's own pages.  Later pressure reaches the
         ORAM policy's own balloon handler, which shrinks the cache. *)
      let boot_budget = max 1 (sl.sl_epc_limit - 64) in
      if Autarky.Pager.budget pager < boot_budget then
        Autarky.Pager.set_budget pager boot_budget;
      let resident_heap =
        List.filter
          (Autarky.Pager.resident pager)
          (Autarky.Allocator.allocated_pages sl.sl_heap)
      in
      Autarky.Pager.evict pager resident_heap;
      let parts =
        match sl.sl_oram with
        | Some p ->
          refetch_pinned sys p.op_cache_pages;
          p
        | None ->
          let p = build_oram t sl in
          sl.sl_oram <- Some p;
          p
      in
      let base = Autarky.Allocator.base_vpage sl.sl_heap in
      List.iter
        (fun vp ->
          Oram.Path_oram.access parts.op_oram ~block:(vp - base) (fun _ -> ()))
        resident_heap;
      sl.sl_iref := Some (oram_accessor sys parts.op_pol);
      Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy parts.op_pol)
  in
  (* Tear the old policy down to a neutral demand-paged state. *)
  (match from_ with
  | Oram -> (
    match sl.sl_oram with
    | Some p ->
      ignore (Autarky.Oram_cache.flush p.op_cache);
      sl.sl_iref := None;
      Autarky.Pager.evict pager
        (List.filter (Autarky.Pager.resident pager) p.op_cache_pages)
    | None -> ())
  | Rate_limit -> sl.sl_progress := (fun () -> ())
  | Clusters | Preload -> ());
  match install to_ with
  | () -> ()
  | exception Invalid_argument msg ->
    (* A refused escalation (preload set over budget) must leave the
       tenant under a working policy: reinstall the previous one.  The
       rollback path cannot itself raise Invalid_argument — RL/Clusters
       never do, and an Oram rollback reuses the surviving parts. *)
    install from_;
    raise (Invalid_argument msg)

(* Build one incarnation: guest process, platform slice, policy, workload. *)
let build_slice t =
  let cfg = t.cfg in
  let avail = Vmm.partition_frames t.vm - Vmm.committed_frames t.vm in
  let epc_limit = min cfg.epc_limit avail in
  if epc_limit < 48 then
    invalid_arg
      (Printf.sprintf "Serve.Tenant %s: partition too small to (re)boot (%d frames)"
         cfg.name avail);
  let proc =
    Vmm.create_guest_proc t.hv t.vm ~size_pages:cfg.enclave_pages
      ~self_paging:true ~epc_limit
  in
  let os = Vmm.guest_os t.vm in
  let sys = System.attach ~machine:t.machine ~os ~proc () in
  let rt = System.runtime_exn sys in
  (* Re-register the balloon upcall with an accounting wrapper so the
     report can show how many pages each tenant ballooned away — and the
     defense controller can read upcall pressure as an attack signal. *)
  Sim_os.Kernel.set_balloon_handler os proc (fun pages ->
      t.balloon_upcalls <- t.balloon_upcalls + 1;
      let released = Autarky.Runtime.balloon_release rt ~pages in
      t.balloon_released_pages <- t.balloon_released_pages + released;
      released);
  let heap = System.allocator sys ~pages:cfg.heap_pages ~cluster_pages:10 in
  let alloc ~bytes = Autarky.Allocator.alloc heap ~bytes in
  let build_rng = Metrics.Rng.create ~seed:t.build_seed in
  let sl =
    {
      sl_sys = sys;
      sl_proc = proc;
      sl_op = (fun _ -> ());
      sl_probe = (fun _ -> []);
      sl_tables = ignore;
      sl_heap = heap;
      sl_epc_limit = epc_limit;
      sl_iref = ref None;
      sl_progress = ref (fun () -> ());
      sl_policy = t.active_policy;
      sl_managed = false;
      sl_req_key = ref 0;
      sl_req_thunk = (fun () -> ());
      sl_oram = None;
    }
  in
  sl.sl_req_thunk <- (fun () -> sl.sl_op !(sl.sl_req_key));
  let finish = pre_install t sl t.active_policy in
  let vm =
    System.vm sys
      ~instrument:(fun a k ->
        match !(sl.sl_iref) with
        | Some f -> f a k
        | None -> Sgx.Cpu.access (System.cpu sys) a k)
      ~on_progress:(fun () -> !(sl.sl_progress) ())
      ()
  in
  let op, probe, tables =
    match cfg.workload with
    | Kvstore ->
      let kv =
        Workloads.Kvstore.create ~vm ~alloc ~rng:build_rng ~n_entries:(n_keys cfg)
          ~value_bytes:1_024 ()
      in
      ( (fun k -> ignore (Workloads.Kvstore.get kv ~key:k)),
        (fun _ -> []),
        Workloads.Kvstore.footprint kv )
    | Spellcheck ->
      let d =
        Workloads.Spellcheck.load_dictionary ~vm ~alloc ~rng:build_rng
          ~name:cfg.name ~n_words:(n_keys cfg) ()
      in
      ( (fun k -> ignore (Workloads.Spellcheck.check d ~word:k)),
        (fun k -> Workloads.Spellcheck.signature d ~word:k),
        Workloads.Spellcheck.footprint d )
    | Uthash ->
      let u =
        Workloads.Uthash.create ~vm ~alloc ~rng:build_rng ~n_items:(n_keys cfg)
          ~item_bytes:256 ~target_chain:10
      in
      (* Uthash emits no progress events of its own; the request is the
         natural progress unit. *)
      ( (fun k ->
          ignore (Workloads.Uthash.find u ~key:k);
          vm.Workloads.Vm.progress ()),
        (fun k -> Workloads.Uthash.probe_pages u ~key:k),
        Workloads.Uthash.footprint u )
  in
  sl.sl_op <- op;
  sl.sl_probe <- probe;
  sl.sl_tables <- tables;
  finish ();
  sl

let create ?(sketch = false) ~machine ~hv ~vm ~seed_base cfg =
  let seed k = Int64.of_int ((seed_base * 31) + k) in
  let t =
    {
      cfg;
      machine;
      hv;
      vm;
      build_seed = seed 0;
      key_rng = Metrics.Rng.create ~seed:(seed 1);
      gen_rng = Metrics.Rng.create ~seed:(seed 2);
      calib_rng = Metrics.Rng.create ~seed:(seed 3);
      dist =
        (match cfg.workload with
        | Kvstore -> Metrics.Dist.scrambled_zipfian ~n:(n_keys cfg) ()
        | Spellcheck -> Metrics.Dist.zipfian ~n:(n_keys cfg) ()
        | Uthash -> Metrics.Dist.uniform ~n:(n_keys cfg));
      slice = None;
      active_policy = cfg.policy;
      in_request = false;
      policy_switches = 0;
      state = (if cfg.arrive_after > 0 then Parked else Active);
      free_at = 0;
      queue = Ring.create ~capacity:(max 1 cfg.queue_capacity);
      lat = Metrics.Stats.create ();
      lat_sketch = (if sketch then Some (Metrics.Sketch.create ()) else None);
      boot_cycles = 0;
      svc_mean = 1.0;
      arrivals = 0;
      served = 0;
      shed = 0;
      missed = 0;
      terminations = 0;
      restarts = 0;
      faults_acc = 0;
      faults_last_seen = 0;
      balloon_released_pages = 0;
      balloon_in_frames = 0;
      balloon_upcalls = 0;
    }
  in
  (* A parked tenant (arrive_after > 0) owns its VM partition from the
     start — static vEPC partitioning reserves the slice — but builds no
     enclave until {!boot} at its join event, so the cold-start cost
     lands on the virtual timeline, not in setup. *)
  if t.state <> Parked then t.slice <- Some (build_slice t);
  t

(* A departed or parked tenant holds no slice, only its sketch. *)
let footprint t acc =
  Option.iter
    (fun sl ->
      System.footprint sl.sl_sys acc;
      Autarky.Allocator.footprint sl.sl_heap acc;
      sl.sl_tables acc;
      Option.iter
        (fun p ->
          Oram.Path_oram.footprint p.op_oram acc;
          Autarky.Oram_cache.footprint p.op_cache acc)
        sl.sl_oram)
    t.slice;
  Option.iter (fun sk -> Metrics.Sketch.footprint sk acc) t.lat_sketch

let config t = t.cfg
let name t = t.cfg.name
let sys t = (slice_exn t).sl_sys
let proc t = (slice_exn t).sl_proc
let vm t = t.vm
let dist t = t.dist
let key_rng t = t.key_rng
let gen_rng t = t.gen_rng
let state t = t.state
let set_refused t = t.state <- Refused
let free_at t = t.free_at
let set_free_at t at = t.free_at <- at
let queue t = t.queue

let record_latency t ~cycles =
  match t.lat_sketch with
  | Some sk -> Metrics.Sketch.add_int sk cycles
  | None -> Metrics.Stats.add t.lat (float_of_int cycles)

let sketch t = t.lat_sketch

let latency_summary t =
  match t.lat_sketch with
  | Some sk -> Metrics.Sketch.summary sk
  | None -> Metrics.Stats.summary t.lat

let boot_cycles t = t.boot_cycles
let svc_mean t = t.svc_mean
let set_svc_mean t m = t.svc_mean <- m
let active_policy t = t.active_policy
let policy_switches t = t.policy_switches
let balloon_upcalls t = t.balloon_upcalls

let heap_region t =
  let sl = slice_exn t in
  (Autarky.Allocator.base_vpage sl.sl_heap, t.cfg.heap_pages)

let resident_heap_pages t =
  let sl = slice_exn t in
  match System.runtime sl.sl_sys with
  | None -> []
  | Some rt ->
    let pager = Autarky.Runtime.pager rt in
    List.filter
      (Autarky.Pager.resident pager)
      (Autarky.Allocator.allocated_pages sl.sl_heap)

let set_policy t kind =
  if t.in_request then
    invalid_arg
      (Printf.sprintf
         "Serve.Tenant.set_policy %s: cannot switch policies mid-request"
         t.cfg.name);
  let sl = slice_exn t in
  if sl.sl_policy <> kind then begin
    switch_policy t sl ~from_:sl.sl_policy ~to_:kind;
    sl.sl_policy <- kind;
    t.active_policy <- kind;
    t.policy_switches <- t.policy_switches + 1
  end

let incarnation_faults t =
  match t.slice with
  | None -> 0
  | Some s -> (
    match System.runtime s.sl_sys with
    | Some rt -> Autarky.Runtime.faults_handled rt
    | None -> 0)

let faults t = t.faults_acc + incarnation_faults t

let next_key t = Metrics.Dist.sample t.dist t.key_rng

(* Calibration draws uniformly over the key space rather than from the
   serving distribution: a skewed distribution would calibrate on a few
   hot (soon-resident) keys and wildly underestimate the steady-state
   service time, turning a nominally moderate open-loop load into an
   accidental overload.  Uniform draws include the cold tail, so the
   estimate errs conservative. *)
let calib_key t = Metrics.Rng.int t.calib_rng (Metrics.Dist.size t.dist)

(* No [Fun.protect]: the wrapper and its two closures would be the last
   per-request allocations on the served-request hot path.  The thunk is
   built once per incarnation; only the key cell is written here. *)
let request t ~key =
  let s = slice_exn t in
  s.sl_req_key := key;
  t.in_request <- true;
  match System.run_in_enclave s.sl_sys s.sl_req_thunk with
  | () -> t.in_request <- false
  | exception e ->
    t.in_request <- false;
    raise e

let probe_pages t ~key = (slice_exn t).sl_probe key

let arrivals t = t.arrivals
let served t = t.served
let shed t = t.shed
let missed t = t.missed
let terminations t = t.terminations
let restarts t = t.restarts
let incr_arrivals t = t.arrivals <- t.arrivals + 1
let incr_served t = t.served <- t.served + 1
let incr_shed t = t.shed <- t.shed + 1
let incr_missed t = t.missed <- t.missed + 1
let incr_terminations t = t.terminations <- t.terminations + 1
let balloon_released_pages t = t.balloon_released_pages
let balloon_in_frames t = t.balloon_in_frames
let add_balloon_in t n = t.balloon_in_frames <- t.balloon_in_frames + n
let faults_last_seen t = t.faults_last_seen
let set_faults_last_seen t v = t.faults_last_seen <- v

let reboot t =
  (match t.slice with
  | Some s ->
    t.faults_acc <- t.faults_acc + incarnation_faults t;
    Vmm.destroy_guest_proc t.hv t.vm s.sl_proc;
    t.slice <- None
  | None -> ());
  t.in_request <- false;
  t.slice <- Some (build_slice t);
  t.restarts <- t.restarts + 1

(* Churn: a parked tenant joins the fleet.  The caller (the engine's
   Join event) brackets this in a clock span so the build — the
   cold-start attestation cost — lands on the virtual timeline. *)
let boot t =
  if t.state <> Parked then
    invalid_arg (Printf.sprintf "Serve.Tenant.boot %s: not parked" t.cfg.name);
  t.slice <- Some (build_slice t);
  t.state <- Active

let set_boot_cycles t c = t.boot_cycles <- c

let depart t =
  (match t.slice with
  | Some s ->
    t.faults_acc <- t.faults_acc + incarnation_faults t;
    Vmm.destroy_guest_proc t.hv t.vm s.sl_proc;
    t.slice <- None
  | None -> ());
  t.in_request <- false;
  Ring.clear t.queue;
  t.state <- Departed
