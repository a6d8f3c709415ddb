(* The three benchmark workloads, driven from outside the simulator.

   Each [run_*] builds a fresh world (the timed set-up), runs a fixed
   number of ops generated from the seed (the timed measured phase) and
   returns one [rep].  When a recorder is passed, the same world is
   built with spans around the public seams — the Os_iface record
   ([Harness.System.create ~wrap_os]), the policy record handed to
   [Autarky.Runtime.set_policy], the [Workloads.Vm.t] closures, the ORAM
   accessor and its [~touch], and [Serve.Engine.step] with the request
   hooks — and the recorder is switched on for the measured phase only.
   Nothing the spans do touches the modeled machine, so a traced rep
   must reproduce the plain rep's [modeled] digest exactly. *)

module System = Harness.System
module Kv = Workloads.Kvstore

(* Modeled latency in cycles: the median, the tail at the highest
   percentile (at most p99) with ten samples beyond it, and the sample
   count. *)
type latency = { p50 : float; tail_pct : int; tail : float; samples : int }

type rep = {
  setup : (string * float) list;  (* per-phase host seconds, in order *)
  ops : int;  (* ops attempted in the measured phase *)
  failed : int;  (* ops whose output check failed or that raised *)
  host_s : float;  (* measured phase, host seconds *)
  alloc_bytes : float;  (* Gc.allocated_bytes over the measured phase *)
  cycles : int;  (* modeled cycles of the measured phase *)
  latency : latency;  (* modeled per-op latency *)
  checks : (string * bool) list;  (* output and non-vacuity checks *)
  counts : (string * float) list;  (* per-layer counts, deterministic *)
  modeled : string;  (* every modeled output, for equality checks *)
  live_mb : float;  (* largest live major heap, after set-up or after the run *)
}

(* Live major heap in MB after a full collection: a footprint that does
   not depend on when the collector happened to run. *)
let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6

let time f =
  let t0 = Spans.now_ns () in
  let v = f () in
  (v, float_of_int (Spans.now_ns () - t0) /. 1e9)

let counter_delta before after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) before;
  List.filter_map
    (fun (k, v) ->
      let d = v - Option.value (Hashtbl.find_opt tbl k) ~default:0 in
      if d <> 0 then Some (k, d) else None)
    after

let count cs name = Option.value (List.assoc_opt name cs) ~default:0

let digest_of ~cycles ~lat ~counters extra =
  let b = Buffer.create 1024 in
  Printf.bprintf b "cycles=%d" cycles;
  Printf.bprintf b " lat=%s"
    (Digest.to_hex
       (Digest.string (String.concat "," (List.map string_of_int (Array.to_list lat)))));
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%d" k v) counters;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k v) extra;
  Buffer.contents b

(* --- tracing wrappers (the seams) ----------------------------------- *)

let os_functions =
  [| "set_enclave_managed"; "set_os_managed"; "fetch_pages"; "fetch_page";
     "evict_pages"; "aug_pages"; "aug_page"; "remove_pages"; "blob_store";
     "blob_load"; "page_in_os_managed"; "epc_headroom" |]

(* [Error _] results seen at the Os_iface seam, while recording. *)
let refusals = ref 0

let traced_os tr (o : Autarky.Os_iface.t) : Autarky.Os_iface.t =
  let tg i = Spans.tag ~sub:i Spans.sim_os in
  let w i f x = Spans.wrap tr (tg i) f x in
  let r i f x =
    match Spans.wrap tr (tg i) f x with
    | Error _ as e ->
      if Spans.recording tr then incr refusals;
      e
    | ok -> ok
  in
  {
    set_enclave_managed = w 0 o.set_enclave_managed;
    set_os_managed = w 1 o.set_os_managed;
    fetch_pages = r 2 o.fetch_pages;
    fetch_page = r 3 o.fetch_page;
    evict_pages = w 4 o.evict_pages;
    aug_pages = r 5 o.aug_pages;
    aug_page = r 6 o.aug_page;
    remove_pages = w 7 o.remove_pages;
    blob_store = (fun vp s -> Spans.wrap2 tr (tg 8) o.blob_store vp s);
    blob_load = w 9 o.blob_load;
    page_in_os_managed = r 10 o.page_in_os_managed;
    epc_headroom = w 11 o.epc_headroom;
  }

let traced_policy tr (p : Autarky.Runtime.policy) =
  let t = Spans.tag Spans.autarky in
  { p with pol_on_miss = (fun vp sf -> Spans.wrap2 tr t p.pol_on_miss vp sf) }

let traced_vm tr (vm : Workloads.Vm.t) =
  let t = Spans.tag Spans.sgx in
  {
    vm with
    Workloads.Vm.read = (fun a -> Spans.wrap tr t vm.read a);
    write = (fun a -> Spans.wrap tr t vm.write a);
    exec = (fun a -> Spans.wrap tr t vm.exec a);
  }

(* Per-layer figures derived from the counters of one measured phase
   ([c] reads a counter delta), divided by its [ops]. *)
let counter_metrics c ~ops =
  let per_op v = float_of_int v /. float_of_int (max 1 ops) in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let misses = c "rt.legitimate_miss" in
  [ ("sgx.faults_per_kop", 1000.0 *. per_op (c "cpu.page_fault"));
    ("sgx.transitions_per_op",
      per_op (c "sgx.aex" + c "sgx.eenter" + c "sgx.eexit" + c "sgx.eresume"));
    ("sgx.paging_instr_per_op",
      per_op (c "sgx.ewb" + c "sgx.eldu" + c "sgx.eblock" + c "sgx.etrack" + c "sgx.epa"));
    ("autarky.misses_per_kop", 1000.0 *. per_op misses);
    ("autarky.pages_fetched_per_miss", ratio (c "rt.pages_fetched") misses);
    ("autarky.pages_evicted_per_miss", ratio (c "rt.pages_evicted") misses);
    ("autarky.fetch_retries_per_kop", 1000.0 *. per_op (c "rt.fetch_retries"));
    ("sim_crypto.seals_per_op", per_op (c "sgx.ewb"));
    ("sim_crypto.unseals_per_op", per_op (c "sgx.eldu"));
    ("oram.path_accesses_per_op", per_op (c "oram.access"));
    ("oram.cache_misses_per_op", per_op (c "oram_cache.miss")) ]

(* --- solo: one self-paging enclave running the kvstore -------------- *)

(* Sizes follow the committed perf matrix's kvstore cells: 4 MiB of EPC
   for the enclave, a heap four times that, 1 KiB values. *)
let epc_limit = 1_024
let heap_pages = 4 * epc_limit
let n_entries = heap_pages * 3
let value_bytes = 1_024
let budget = epc_limit - 256
let build_seed = 0x5eedL  (* the enclave image; not the workload seed *)

type mix = Read_only | Half_set

(* Ops are ints: key lsl 1, low bit set for a SET. *)
let gen_ops ~seed ~mix n =
  let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
  let dist = Metrics.Dist.scrambled_zipfian ~n:n_entries () in
  let gen =
    match mix with
    | Read_only -> Workloads.Ycsb.workload_c ~dist ~rng
    | Half_set -> Workloads.Ycsb.workload_a ~dist ~rng
  in
  Array.init n (fun _ ->
      match Workloads.Ycsb.next gen with
      | Workloads.Ycsb.Get k -> k lsl 1
      | Workloads.Ycsb.Put k -> (k lsl 1) lor 1
      | _ -> invalid_arg "gen_ops: YCSB A/C emit only GET and PUT")

type inputs = { warm : int array; measured : int array }

(* The warm-up stream is drawn from a second generator so the measured
   stream does not depend on how long warming took. *)
let solo_inputs ~seed ~mix ~ops ~warm =
  { warm = gen_ops ~seed:(seed lxor 0x2545F491) ~mix warm;
    measured = gen_ops ~seed ~mix ops }

type solo = {
  s_sys : System.t;
  s_kv : Kv.t;
  s_oram : Autarky.Oram_cache.t option;
}

let do_op kv op =
  let key = op lsr 1 in
  if op land 1 = 0 then Kv.get kv ~key
  else begin
    Kv.set kv ~key;
    true
  end

let build_solo ?tr ~oram () =
  let wrap_os = Option.map traced_os tr in
  let sys, build_s =
    time (fun () ->
        System.create ~mech:`Sgx1 ~epc_frames:(epc_limit + 1_024) ~epc_limit
          ~enclave_pages:(8 * epc_limit) ~self_paging:true ~budget ?wrap_os ())
  in
  let heap = System.allocator sys ~pages:heap_pages ~cluster_pages:10 in
  let alloc ~bytes = Autarky.Allocator.alloc heap ~bytes in
  let rt = System.runtime_exn sys in
  let cpu_access a k = Sgx.Cpu.access (System.cpu sys) a k in
  let sgx_span f =
    match tr with
    | None -> f
    | Some tr -> fun a k -> Spans.wrap2 tr (Spans.tag Spans.sgx) f a k
  in
  let oram_parts, oram_s =
    if not oram then (None, 0.0)
    else
      time (fun () ->
          let cache_pages = epc_limit * 2 / 3 in
          let cache_base = System.reserve sys ~pages:cache_pages in
          let tree =
            Oram.Path_oram.create ~clock:(System.clock sys)
              ~rng:(Metrics.Rng.create ~seed:9L) ~n_blocks:heap_pages ()
          in
          let cache =
            Autarky.Oram_cache.create ~machine:(System.machine sys)
              ~enclave:(System.enclave sys) ~touch:(sgx_span cpu_access)
              ~oram:tree ~data_base_vpage:(Autarky.Allocator.base_vpage heap)
              ~n_pages:heap_pages ~cache_base_vpage:cache_base
              ~capacity_pages:cache_pages ()
          in
          System.pin sys (List.init cache_pages (fun i -> cache_base + i));
          let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
          let acc = Autarky.Policy_oram.accessor pol ~fallback:(sgx_span cpu_access) in
          let acc =
            match tr with
            | None -> acc
            | Some tr -> fun a k -> Spans.wrap2 tr (Spans.tag Spans.oram) acc a k
          in
          Some (acc, pol, cache))
  in
  let vm =
    match oram_parts with
    | Some (acc, _, _) -> System.vm sys ~instrument:acc ()
    | None -> System.vm sys ()
  in
  let vm = match tr with None -> vm | Some tr -> traced_vm tr vm in
  let kv, populate_s =
    time (fun () ->
        Kv.create ~vm ~alloc ~rng:(Metrics.Rng.create ~seed:build_seed)
          ~n_entries ~value_bytes ())
  in
  let policy =
    match oram_parts with
    | Some (_, pol, _) -> Autarky.Policy_oram.policy pol
    | None ->
      let pc =
        Autarky.Policy_clusters.create ~runtime:rt
          ~clusters:(Autarky.Allocator.clusters heap)
      in
      System.manage sys (Autarky.Allocator.allocated_pages heap);
      Autarky.Policy_clusters.policy pc
  in
  let policy = match tr with None -> policy | Some tr -> traced_policy tr policy in
  Autarky.Runtime.set_policy rt policy;
  ( { s_sys = sys; s_kv = kv; s_oram = Option.map (fun (_, _, c) -> c) oram_parts },
    [ ("harness.build_s", build_s); ("oram.init_s", oram_s);
      ("workloads.populate_s", populate_s) ] )

(* Warm until the mechanism under test is in steady state: the pager's
   budget is full and has turned over once (clusters), or every cache
   slot has been refilled once (ORAM).  Bounded by the warm-up stream,
   so a world that never warms fails its check instead of spinning. *)
let warm_solo w (inp : inputs) =
  let rt = System.runtime_exn w.s_sys in
  let pager = Autarky.Runtime.pager rt in
  let evicted () = Metrics.Counters.get (System.counters w.s_sys) "rt.pages_evicted" in
  let ev0 = evicted () in
  let miss0 = Option.fold ~none:0 ~some:Autarky.Oram_cache.misses w.s_oram in
  let warmed () =
    match w.s_oram with
    | Some c ->
      Autarky.Oram_cache.misses c - miss0 >= Autarky.Oram_cache.live_capacity c
    | None ->
      Autarky.Pager.resident_count pager >= budget && evicted () - ev0 >= budget
  in
  let i = ref 0 and ok = ref true in
  match
    System.run_in_enclave w.s_sys (fun () ->
        while (not (warmed ())) && !i < Array.length inp.warm do
          if not (do_op w.s_kv inp.warm.(!i)) then ok := false;
          incr i
        done)
  with
  | () -> !ok && warmed ()
  | exception Sgx.Types.Enclave_terminated _ -> false

(* Re-read a sample of the measured phase's SET keys (at most 256,
   evenly spaced); every one must be found. *)
let reread_sets w ops =
  let sets = List.filter (fun op -> op land 1 = 1) (Array.to_list ops) in
  let n = List.length sets in
  let step = max 1 (n / 256) in
  let ok = ref true in
  System.run_in_enclave w.s_sys (fun () ->
      List.iteri
        (fun i op -> if i mod step = 0 && not (Kv.get w.s_kv ~key:(op lsr 1)) then ok := false)
        sets);
  (!ok, n)

let run_solo ?tr ~oram (inp : inputs) =
  refusals := 0;
  let (w, phases), _ = time (fun () -> build_solo ?tr ~oram ()) in
  let warm_ok, warm_s = time (fun () -> warm_solo w inp) in
  let setup = phases @ [ ("workloads.warmup_s", warm_s) ] in
  let live_setup = live_mb () in
  let sys = w.s_sys in
  let clock = System.clock sys in
  let cpu = System.cpu sys in
  let rt = System.runtime_exn sys in
  let ops = inp.measured in
  let n = Array.length ops in
  let lat = Array.make n 0 in
  let failed = ref 0 and terminated = ref false in
  let c_before = Metrics.Counters.snapshot (System.counters sys) in
  let acc0 = Sgx.Cpu.accesses cpu and faults0 = Autarky.Runtime.faults_handled rt in
  let cyc0 = Metrics.Clock.now clock in
  let gc0 = Gc.quick_stat () in
  let loop () =
    System.run_in_enclave sys (fun () ->
        match tr with
        | None ->
          for i = 0 to n - 1 do
            let c = Metrics.Clock.now clock in
            if not (do_op w.s_kv ops.(i)) then incr failed;
            lat.(i) <- Metrics.Clock.now clock - c
          done
        | Some tr ->
          let t = Spans.tag Spans.workloads in
          for i = 0 to n - 1 do
            let c = Metrics.Clock.now clock in
            if not (Spans.wrap2 tr t do_op w.s_kv ops.(i)) then incr failed;
            lat.(i) <- Metrics.Clock.now clock - c
          done)
  in
  let a0 = Gc.allocated_bytes () in
  let t0 = Spans.now_ns () in
  (match tr with
  | None -> ( try loop () with Sgx.Types.Enclave_terminated _ -> terminated := true)
  | Some tr -> (
    Spans.set_clocks tr ~cycles:(fun () -> Metrics.Clock.now clock);
    Spans.start tr;
    try
      Spans.wrap tr (Spans.tag Spans.harness) loop ();
      Spans.stop tr
    with Sgx.Types.Enclave_terminated _ ->
      Spans.stop tr;
      terminated := true));
  let host_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let gc1 = Gc.quick_stat () in
  let cycles = Metrics.Clock.now clock - cyc0 in
  let counters =
    counter_delta c_before (Metrics.Counters.snapshot (System.counters sys))
  in
  let live_run = live_mb () in
  let faults = Autarky.Runtime.faults_handled rt - faults0 in
  let accesses = Sgx.Cpu.accesses cpu - acc0 in
  if !terminated then failed := n;
  let reread_ok, n_sets = if !terminated then (false, 0) else reread_sets w ops in
  let c = count counters in
  let misses = c "rt.legitimate_miss" in
  let per_op v = float_of_int v /. float_of_int n in
  let per_kop v = 1000.0 *. per_op v in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let checks =
    [ ("warm-up reached steady state", warm_ok);
      ("every GET found its key", !failed = 0);
      ("sampled SET keys re-read", reread_ok);
      ("no Enclave_terminated", not !terminated) ]
    @
    if oram then
      [ ("solo-oram: zero page faults", faults = 0 && c "cpu.page_fault" = 0);
        ("solo-oram: ORAM path accesses > 0", c "oram.access" > 0);
        ("solo-oram: SETs > 0", n_sets > 0) ]
    else
      [ ("solo-clusters: faults > 0", faults > 0);
        ("solo-clusters: pages fetched per miss > 1",
          ratio (c "rt.pages_fetched") misses > 1.0) ]
  in
  let counts =
    [ ("sgx.accesses_per_op", per_op accesses);
      ("sgx.tlb_miss_share", ratio (c "mmu.tlb_miss") accesses);
      ("gc.major_collections_per_kop",
        per_kop (gc1.Gc.major_collections - gc0.Gc.major_collections)) ]
    @ counter_metrics c ~ops:n
  in
  (* GC figures are host-side: they stay out of the modeled digest. *)
  let modeled =
    digest_of ~cycles ~lat ~counters
      [ ("faults", string_of_int faults); ("accesses", string_of_int accesses);
        ("failed", string_of_int !failed) ]
  in
  Array.sort compare lat;
  let tail_pct, tail = Spans.tail lat ~p:99 in
  let latency =
    { p50 = float_of_int (Spans.quantile lat 50); tail_pct; tail = float_of_int tail;
      samples = n }
  in
  {
    setup;
    ops = n;
    failed = !failed;
    host_s;
    alloc_bytes;
    cycles;
    latency;
    checks;
    counts;
    modeled;
    live_mb = Float.max live_setup live_run;
  }

(* --- fleet: the 100-tenant class mix on one machine ----------------- *)

let classes = [| "kv"; "ht"; "di"; "cl"; "ov" |]

let class_of_index i =
  match i mod 10 with 0 | 1 | 2 | 3 -> 0 | 4 | 5 -> 1 | 6 | 7 -> 2 | 8 -> 3 | _ -> 4

let fleet_tenants = 100
let fleet_span = 10_000_000

(* The class mix of [Serve.Driver.fleet_scenario ~quick:true], built
   here so the heavy-tail uthash/rate-limit class ("ht") can be given a
   heap (320 pages) larger than its EPC allowance (128 frames): those
   tenants demand-page through the single-page SGXv1 path, which the
   committed fleet never reaches.  Their Pareto arrivals run at load 0.5
   with tail index 2.5 instead of 0.8 and 1.5: with paging service
   times, the steeper setting moved the fleet's p99 latency by 35-40%
   between seeds, too wide for any regression bound. *)
let fleet_configs () =
  List.init fleet_tenants (fun i ->
      let base name =
        {
          Serve.Tenant.name = Printf.sprintf "%s%03d" name i;
          workload = Serve.Tenant.Kvstore;
          policy = Serve.Tenant.Clusters;
          partition_frames = 160;
          epc_limit = 128;
          enclave_pages = 512;
          heap_pages = 128;
          generator = Serve.Tenant.Open_loop { load = 0.6 };
          queue_capacity = 16;
          deadline = None;
          requests = 800;
          arrive_after = 0;
          depart_after = None;
        }
      in
      match class_of_index i with
      | 0 -> base "kv"
      | 1 ->
        {
          (base "ht") with
          Serve.Tenant.workload = Serve.Tenant.Uthash;
          policy = Serve.Tenant.Rate_limit;
          heap_pages = 320;
          generator = Serve.Tenant.Heavy_tail { load = 0.5; alpha = 2.5 };
          requests = 750;
        }
      | 2 ->
        {
          (base "di") with
          Serve.Tenant.workload = Serve.Tenant.Uthash;
          policy = Serve.Tenant.Preload;
          partition_frames = 224;
          epc_limit = 192;
          heap_pages = 96;
          generator = Serve.Tenant.Diurnal { load = 0.7; depth = 0.6; period = 400.0 };
          requests = 700;
          arrive_after = (fleet_span * 4 / 100) + (i * 1_000);
        }
      | 3 ->
        {
          (base "cl") with
          Serve.Tenant.workload = Serve.Tenant.Spellcheck;
          policy = Serve.Tenant.Oram;
          heap_pages = 96;
          generator = Serve.Tenant.Closed_loop { clients = 2; think = 1.0 };
          requests = 150;
        }
      | _ ->
        {
          (base "ov") with
          Serve.Tenant.workload = Serve.Tenant.Uthash;
          policy = Serve.Tenant.Rate_limit;
          heap_pages = 96;
          generator = Serve.Tenant.Open_loop { load = 2.2 };
          queue_capacity = 8;
          deadline = Some 10.0;
          requests = 1_800;
          depart_after = Some ((fleet_span * 55 / 100) + (i * 2_000));
        })

(* Request spans are booked to [workloads] with the tenant class as
   sub-kind: Serve.Tenant wires its VM closures and Os_iface record
   internally, so below the request seam only the policy record can be
   wrapped from outside (re-wrapped whenever a boot or reboot installs
   a fresh one).  The hooks also count the VM accesses each request
   makes, reading the CPU it started on (a reboot inside the request
   replaces the tenant's CPU). *)
let request_accesses = ref 0

let fleet_hooks tr =
  let wrapped = Hashtbl.create 128 in
  let rewrap i tn =
    if Serve.Tenant.state tn = Serve.Tenant.Active then
      match System.runtime (Serve.Tenant.sys tn) with
      | None -> ()
      | Some rt -> (
        let cur = Autarky.Runtime.policy rt in
        match Hashtbl.find_opt wrapped i with
        | Some p when p == cur -> ()
        | _ ->
          let p = traced_policy tr cur in
          Hashtbl.replace wrapped i p;
          Autarky.Runtime.set_policy rt p)
  in
  let cpu = ref None and acc0 = ref 0 in
  {
    Serve.Engine.h_period = 1e9;  (* first tick lands after all work *)
    h_on_start = (fun cx -> Array.iteri rewrap cx.Serve.Engine.cx_tenants);
    h_on_tick = (fun _ ~at:_ -> ());
    h_before_request =
      (fun cx ~at:_ ~tenant ~key:_ ->
        let tn = cx.Serve.Engine.cx_tenants.(tenant) in
        rewrap tenant tn;
        let c = System.cpu (Serve.Tenant.sys tn) in
        cpu := Some c;
        acc0 := Sgx.Cpu.accesses c;
        Spans.enter tr (Spans.tag ~sub:(class_of_index tenant) Spans.workloads));
    h_after_request =
      (fun _ ~at:_ ~tenant:_ ~verdict:_ ->
        Spans.leave tr;
        match !cpu with
        | Some c when Spans.recording tr ->
          request_accesses := !request_accesses + Sgx.Cpu.accesses c - !acc0
        | _ -> ());
  }

let run_fleet ?tr ~seed () =
  let params =
    {
      (Serve.Engine.default_params ~seed) with
      Serve.Engine.p_trace = false;
      p_sketch = true;
      p_hooks = Option.map fleet_hooks tr;
    }
  in
  let cfgs = fleet_configs () in
  let st, start_s = time (fun () -> Serve.Engine.start ~params cfgs) in
  let live_setup = live_mb () in
  let machine = Serve.Engine.machine_of st in
  let clock = machine.Sgx.Machine.clock in
  let counters = Sgx.Machine.counters machine in
  let c_before = Metrics.Counters.snapshot counters in
  let cyc0 = Metrics.Clock.now clock in
  let a0 = Gc.allocated_bytes () in
  let t0 = Spans.now_ns () in
  (match tr with
  | None ->
    while Serve.Engine.step st do
      ()
    done
  | Some tr ->
    Spans.set_clocks tr ~cycles:(fun () -> Metrics.Clock.now clock);
    Spans.start tr;
    let step = Spans.tag Spans.serve in
    Spans.wrap tr (Spans.tag Spans.harness)
      (fun () ->
        while Spans.wrap tr step Serve.Engine.step st do
          ()
        done)
      ();
    Spans.stop tr);
  let host_s = float_of_int (Spans.now_ns () - t0) /. 1e9 in
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  let cycles = Metrics.Clock.now clock - cyc0 in
  let res = Serve.Engine.finish st in
  let live_run = live_mb () in
  let counters = counter_delta c_before (Metrics.Counters.snapshot counters) in
  let tenants = Array.to_list res.Serve.Engine.r_tenants in
  let sum f = List.fold_left (fun a tn -> a + f tn) 0 tenants in
  let in_class k = List.filteri (fun i _ -> class_of_index i = k) tenants in
  let module T = Serve.Tenant in
  let arrivals = sum T.arrivals in
  let shed = sum T.shed and missed = sum T.missed in
  let joins =
    List.length
      (List.filter (fun tn -> (T.config tn).T.arrive_after > 0 && T.boot_cycles tn > 0) tenants)
  in
  let departures = List.length (List.filter (fun tn -> T.state tn = T.Departed) tenants) in
  let paging_faults = List.fold_left (fun a tn -> a + T.faults tn) 0 (in_class 1) in
  let moves = res.Serve.Engine.r_arbiter_moves in
  let frames_moved = sum T.balloon_in_frames in
  let sketch = Metrics.Sketch.merged (List.filter_map T.sketch tenants) in
  let conserved =
    List.for_all (fun tn -> T.arrivals tn = T.served tn + T.shed tn + T.missed tn) tenants
  in
  let c = count counters in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let checks =
    [ ("every tenant: arrivals = served + shed + missed", conserved);
      ("fleet: faults > 0 in the paging class", paging_faults > 0);
      ("fleet: arbiter moves > 0", moves > 0);
      ("fleet: joins > 0", joins > 0);
      ("fleet: departures > 0", departures > 0);
      ("fleet: shed requests > 0", shed > 0) ]
  in
  let counts =
    counter_metrics c ~ops:arrivals
    @ [ ("serve.shed_share", ratio shed arrivals);
        ("serve.missed_share", ratio missed arrivals);
        ("serve.joins", float_of_int joins);
        ("serve.departures", float_of_int departures);
        ("serve.boot_cycles_per_join", ratio (sum T.boot_cycles) joins);
        ("hypervisor.arbiter_moves", float_of_int moves);
        ("hypervisor.frames_moved", float_of_int frames_moved) ]
  in
  let per_tenant =
    List.map
      (fun tn ->
        ( T.name tn,
          Printf.sprintf "%d/%d/%d/%d/f%d/t%d/r%d/b%d" (T.arrivals tn) (T.served tn)
            (T.shed tn) (T.missed tn) (T.faults tn) (T.terminations tn)
            (T.restarts tn) (T.boot_cycles tn) ))
      tenants
  in
  let samples = Metrics.Sketch.count sketch in
  let q p = if samples = 0 then 0.0 else Metrics.Sketch.quantile sketch (float_of_int p) in
  let tail_pct = Spans.tail_percentile ~p:99 samples in
  let latency = { p50 = q 50; tail_pct; tail = q tail_pct; samples } in
  let modeled =
    digest_of ~cycles ~lat:[||] ~counters
      ([ ("moves", string_of_int moves);
         ("lat", Printf.sprintf "n%d/p50=%.17g/p99=%.17g/mean=%.17g" samples (q 50) (q 99)
             (Metrics.Sketch.mean sketch)) ]
      @ per_tenant)
  in
  {
    setup = [ ("serve.start_s", start_s) ];
    ops = arrivals;
    failed = 0;
    host_s;
    alloc_bytes;
    cycles;
    latency;
    checks;
    counts;
    modeled;
    live_mb = Float.max live_setup live_run;
  }
