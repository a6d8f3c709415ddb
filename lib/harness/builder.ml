(* One world builder: a (policy, mechanism, workload) triple at a given
   geometry, built into a running platform.  The perf matrix, the
   long-horizon runner, the CLI and the paper experiments all build
   here, so each workload name means one world. *)

type policy = Baseline | Rate_limit | Clusters | Oram

type workload =
  | Ycsb
  | Kvstore
  | Uthash
  | Spellcheck
  | Jpeg
  | Fontrender
  | Kernel of Workloads.Kernels.spec

(* The name tables: each name is parsed and printed from here only. *)
let policy_names =
  [ (Baseline, "baseline"); (Rate_limit, "rate-limit"); (Clusters, "clusters");
    (Oram, "oram") ]

(* Every workload but the kernels, with its name and its op's unit. *)
let plain_workloads =
  [ (Ycsb, ("ycsb", "GETs")); (Kvstore, ("kvstore", "GETs"));
    (Uthash, ("uthash", "lookups")); (Spellcheck, ("spellcheck", "words"));
    (Jpeg, ("jpeg", "block rows")); (Fontrender, ("fontrender", "glyphs")) ]

let mech_names : (Autarky.Pager.mech * string) list =
  [ (`Sgx1, "sgx1"); (`Sgx2, "sgx2") ]

let of_name table s = List.find_map (fun (x, n) -> if n = s then Some x else None) table
let policy_name p = List.assoc p policy_names
let policy_of_name = of_name policy_names
let policies = List.map fst policy_names
let mech_name m = List.assoc m mech_names
let mech_of_name = of_name mech_names

let workload_name = function
  | Kernel k -> "kernel:" ^ k.Workloads.Kernels.k_name
  | w -> fst (List.assoc w plain_workloads)

let workload_unit = function
  | Kernel _ -> "units"
  | w -> snd (List.assoc w plain_workloads)

let workload_of_name s =
  match String.split_on_char ':' s with
  | [ "kernel"; name ] ->
    List.find_opt (fun k -> k.Workloads.Kernels.k_name = name) Workloads.Kernels.suite
    |> Option.map (fun k -> Kernel k)
  | _ -> of_name (List.map (fun (w, (n, _)) -> (w, n)) plain_workloads) s

let workloads =
  List.map fst plain_workloads @ List.map (fun k -> Kernel k) Workloads.Kernels.suite

type spec = {
  policy : policy;
  mech : Autarky.Pager.mech;
  epc_limit : int;
  epc_frames : int;
  enclave_pages : int;
  heap_pages : int;
  cluster_pages : int;
  budget : int;
  oram_cache_pages : int;
  oram_seed : int64;
  rate_limit : int;
  trace : bool;
}

(* The perf cell: a 4 MiB EPC against a 16 MiB heap, small enough that
   the heap pages heavily.  The pinned ORAM cache takes 2/3 of the
   allowance but never more than the paging budget, which it would
   evict its own pages to fit (below 768 pages of EPC). *)
let spec ?(mech = `Sgx1) ?(epc_limit = 1_024) ?epc_frames ?enclave_pages
    ?heap_pages ?(cluster_pages = 10) ?budget ?oram_cache_pages
    ?(oram_seed = 9L) ?(rate_limit = 512) ?(trace = false) policy =
  let budget = Option.value budget ~default:(max 64 (epc_limit - 256)) in
  let or_ default v = Option.value v ~default in
  {
    policy;
    mech;
    epc_limit;
    epc_frames = or_ (epc_limit + 1_024) epc_frames;
    enclave_pages = or_ (8 * epc_limit) enclave_pages;
    heap_pages = or_ (4 * epc_limit) heap_pages;
    cluster_pages;
    budget;
    oram_cache_pages = or_ (min budget (max 64 (epc_limit * 2 / 3))) oram_cache_pages;
    oram_seed;
    rate_limit;
    trace;
  }

type t = {
  sys : System.t;
  heap : Autarky.Allocator.t;
  vm : Workloads.Vm.t;
  finish : unit -> unit;
}

(* A kernel's [ws_pages] are added to the enclave, reserved right after
   the heap and managed with it; returns their base. *)
let create_with ~on_system ~ws_pages s =
  let sys =
    System.create ~mech:s.mech ~trace:s.trace ~epc_frames:s.epc_frames
      ~epc_limit:s.epc_limit ~enclave_pages:(s.enclave_pages + ws_pages)
      ~self_paging:(s.policy <> Baseline) ~budget:s.budget ()
  in
  on_system sys;
  let heap = System.allocator sys ~pages:s.heap_pages ~cluster_pages:s.cluster_pages in
  let ws_base = if ws_pages > 0 then System.reserve sys ~pages:ws_pages else 0 in
  let manage () =
    System.manage sys
      (Autarky.Allocator.allocated_pages heap @ List.init ws_pages (( + ) ws_base))
  in
  let cpu_access a k = Sgx.Cpu.access (System.cpu sys) a k in
  let t =
    match s.policy with
    | Baseline -> { sys; heap; vm = System.vm sys (); finish = ignore }
    | Rate_limit ->
      let rt = System.runtime_exn sys in
      let rl =
        Autarky.Policy_rate_limit.create ~runtime:rt
          ~max_faults_per_unit:s.rate_limit ()
      in
      let finish () =
        Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
        manage ()
      in
      let on_progress () = Autarky.Policy_rate_limit.progress rl in
      { sys; heap; vm = System.vm sys ~on_progress (); finish }
    | Clusters ->
      let rt = System.runtime_exn sys in
      let finish () =
        let pc =
          Autarky.Policy_clusters.create ~runtime:rt
            ~clusters:(Autarky.Allocator.clusters heap)
        in
        Autarky.Runtime.set_policy rt (Autarky.Policy_clusters.policy pc);
        manage ()
      in
      { sys; heap; vm = System.vm sys (); finish }
    | Oram ->
      let rt = System.runtime_exn sys in
      let pages = s.oram_cache_pages in
      let cache_base = System.reserve sys ~pages in
      let oram =
        Oram.Path_oram.create ~clock:(System.clock sys)
          ~rng:(Metrics.Rng.create ~seed:s.oram_seed) ~n_blocks:s.heap_pages ()
      in
      let cache =
        Autarky.Oram_cache.create ~machine:(System.machine sys)
          ~enclave:(System.enclave sys) ~touch:cpu_access ~oram
          ~data_base_vpage:(Autarky.Allocator.base_vpage heap)
          ~n_pages:s.heap_pages ~cache_base_vpage:cache_base
          ~capacity_pages:pages ()
      in
      (* The cache must be resident before the first instrumented access. *)
      System.pin sys (List.init pages (( + ) cache_base));
      let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
      let instrument = Autarky.Policy_oram.accessor pol ~fallback:cpu_access in
      let finish () =
        Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy pol)
      in
      { sys; heap; vm = System.vm sys ~instrument (); finish }
  in
  (t, ws_base)

let create s = fst (create_with ~on_system:ignore ~ws_pages:0 s)

let build ?(on_system = ignore) s workload ~seed =
  let ws_pages = match workload with Kernel k -> k.ws_pages | _ -> 0 in
  let t, ws_base = create_with ~on_system ~ws_pages s in
  let vm = t.vm in
  let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
  let alloc ~bytes = Autarky.Allocator.alloc t.heap ~bytes in
  let kvstore () =
    let n_entries = s.heap_pages * 3 in
    let kv =
      Workloads.Kvstore.create ~vm ~alloc ~rng ~n_entries ~value_bytes:1_024 ()
    in
    (kv, n_entries)
  in
  let op =
    match workload with
    | Ycsb ->
      let kv, n = kvstore () in
      let gen =
        Workloads.Ycsb.workload_c ~dist:(Metrics.Dist.scrambled_zipfian ~n ()) ~rng
      in
      fun _ ->
        (match Workloads.Ycsb.next gen with
        | Workloads.Ycsb.Get k -> ignore (Workloads.Kvstore.get kv ~key:k)
        | _ -> ())
    | Kvstore ->
      let kv, n = kvstore () in
      let dist = Metrics.Dist.uniform ~n in
      fun _ -> ignore (Workloads.Kvstore.get kv ~key:(Metrics.Dist.sample dist rng))
    | Uthash ->
      let u =
        Workloads.Uthash.create ~vm ~alloc ~rng ~n_items:(s.heap_pages * 12)
          ~item_bytes:256 ~target_chain:10
      in
      let n = Workloads.Uthash.n_items u in
      (* Uthash emits no progress events of its own; the lookup is the
         natural progress unit. *)
      fun i ->
        ignore (Workloads.Uthash.find u ~key:(i * 7919 mod n));
        vm.Workloads.Vm.progress ()
    | Spellcheck ->
      (* Sized from the heap, as the kvstore and uthash are, so the
         dictionary outgrows the EPC allowance at any geometry. *)
      let n_words = s.heap_pages * 32 in
      let d =
        Workloads.Spellcheck.load_dictionary ~vm ~alloc ~rng ~name:"en" ~n_words ()
      in
      let dist = Metrics.Dist.zipfian ~n:n_words () in
      fun _ ->
        ignore (Workloads.Spellcheck.check d ~word:(Metrics.Dist.sample dist rng))
    | Jpeg ->
      let codec = Workloads.Jpeg.create ~vm ~alloc ~blocks_w:64 ~blocks_h:1 in
      let image = Workloads.Jpeg.random_image ~rng ~blocks_w:64 ~blocks_h:1 () in
      fun _ -> Workloads.Jpeg.decode codec ~image ()
    | Fontrender ->
      let f = Workloads.Fontrender.create ~vm ~alloc ~glyphs:96 ~code_pages:20 in
      fun i -> Workloads.Fontrender.render_glyph f (i mod 96)
    | Kernel k ->
      (* Touch the hot subset once, as the other builds fill their
         tables, so the first unit does not start cold: a thousand
         first-touch faults in one unit trip the rate limiter. *)
      for p = 0 to k.hot_pages - 1 do
        vm.Workloads.Vm.read ((ws_base + p) * Sgx.Types.page_bytes)
      done;
      fun _ -> Workloads.Kernels.run k ~vm ~rng ~base_page:ws_base ~units:1 ()
  in
  t.finish ();
  (t.sys, op)
