(* Tests for the enclave-managed ORAM page cache and the ORAM policy's
   instrumented accessors (cached and uncached). *)

open Sgx

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let setup ?(writeback = `Dirty_only) ?(data_pages = 32) ?(cache_pages = 8) () =
  let sys = Helpers.autarky_system ~budget:64 () in
  let data_base = Harness.System.reserve sys ~pages:data_pages in
  let cache_base = Harness.System.reserve sys ~pages:cache_pages in
  Harness.System.pin sys (List.init cache_pages (fun i -> cache_base + i));
  let oram =
    Oram.Path_oram.create
      ~clock:(Harness.System.clock sys)
      ~rng:(Metrics.Rng.create ~seed:1L)
      ~n_blocks:data_pages ()
  in
  let cache =
    Autarky.Oram_cache.create ~writeback ~machine:(Harness.System.machine sys)
      ~enclave:(Harness.System.enclave sys)
      ~touch:(fun a k -> Cpu.access (Harness.System.cpu sys) a k)
      ~oram ~data_base_vpage:data_base ~n_pages:data_pages
      ~cache_base_vpage:cache_base ~capacity_pages:cache_pages ()
  in
  (sys, cache, data_base, oram)

let page = Types.page_bytes

let test_hit_miss_accounting () =
  let sys, cache, base, _ = setup () in
  ignore sys;
  let addr = base * page in
  Autarky.Oram_cache.access cache addr Types.Read;
  checki "first access misses" 1 (Autarky.Oram_cache.misses cache);
  Autarky.Oram_cache.access cache addr Types.Read;
  Autarky.Oram_cache.access cache (addr + 64) Types.Read;
  checki "subsequent accesses hit" 2 (Autarky.Oram_cache.hits cache);
  checki "still one miss" 1 (Autarky.Oram_cache.misses cache)

let test_data_survives_eviction () =
  let sys, cache, base, _ = setup ~data_pages:32 ~cache_pages:4 () in
  ignore sys;
  (* Stamp page 0 through the cache, thrash the cache, read it back. *)
  Autarky.Oram_cache.write_stamp cache (base * page) 1234;
  for i = 1 to 20 do
    Autarky.Oram_cache.access cache ((base + i) * page) Types.Read
  done;
  checki "stamp survived ORAM round trip" 1234
    (Autarky.Oram_cache.read_stamp cache (base * page))

let test_many_pages_consistency () =
  let sys, cache, base, _ = setup ~data_pages:32 ~cache_pages:4 () in
  ignore sys;
  let rng = Metrics.Rng.create ~seed:2L in
  let shadow = Array.make 32 0 in
  for _ = 1 to 500 do
    let p = Metrics.Rng.int rng 32 in
    if Metrics.Rng.bool rng then begin
      let v = Metrics.Rng.int rng 100_000 in
      shadow.(p) <- v;
      Autarky.Oram_cache.write_stamp cache ((base + p) * page) v
    end
    else
      checki "consistent" shadow.(p)
        (Autarky.Oram_cache.read_stamp cache ((base + p) * page))
  done

let test_region_check () =
  let sys, cache, base, _ = setup () in
  ignore sys;
  checkb "inside" true (Autarky.Oram_cache.in_data_region cache (base * page));
  checkb "outside" false
    (Autarky.Oram_cache.in_data_region cache ((base + 1000) * page));
  checkb "out-of-region access rejected" true
    (try Autarky.Oram_cache.access cache ((base + 1000) * page) Types.Read; false
     with Invalid_argument _ -> true)

let test_oram_traffic_data_independent () =
  (* Under [`Always] write-back, read-only and write-heavy workloads
     generate identical ORAM traffic per miss — no dirtiness signal. *)
  let sys, cache, base, oram =
    setup ~writeback:`Always ~data_pages:16 ~cache_pages:2 ()
  in
  ignore sys;
  Oram.Path_oram.set_tracing oram true;
  for i = 0 to 15 do
    Autarky.Oram_cache.access cache ((base + i) * page) Types.Read
  done;
  let reads_only = List.length (Oram.Path_oram.trace oram) in
  let sys2, cache2, base2, oram2 =
    setup ~writeback:`Always ~data_pages:16 ~cache_pages:2 ()
  in
  ignore sys2;
  Oram.Path_oram.set_tracing oram2 true;
  for i = 0 to 15 do
    Autarky.Oram_cache.write_stamp cache2 ((base2 + i) * page) i
  done;
  let writes_heavy = List.length (Oram.Path_oram.trace oram2) in
  checki "same oram ops regardless of writes" reads_only writes_heavy

let test_dirty_only_skips_clean_writebacks () =
  (* CoSMIX's default: clean evictions cost one ORAM access (the fetch),
     dirty evictions two. *)
  let sys, cache, base, oram = setup ~data_pages:16 ~cache_pages:2 () in
  ignore sys;
  Oram.Path_oram.set_tracing oram true;
  for i = 0 to 15 do
    Autarky.Oram_cache.access cache ((base + i) * page) Types.Read
  done;
  (* 16 misses, all clean: exactly 16 ORAM accesses. *)
  checki "one oram op per clean miss" 16 (List.length (Oram.Path_oram.trace oram))

(* A steady-state dirty miss writes the evicted slot back to the ORAM
   and fills the slot from it: two oblivious page copies through
   callbacks built once per cache, and nothing on the host heap. *)
let test_dirty_miss_allocates_nothing () =
  if Helpers.native then begin
    let _sys, cache, base, _ = setup ~data_pages:16 ~cache_pages:4 () in
    let write i = Autarky.Oram_cache.access cache ((base + i) * page) Types.Write in
    (* Warm up: every block materialised, every slot dirty. *)
    for i = 0 to 31 do write (i mod 16) done;
    let misses = Autarky.Oram_cache.misses cache in
    let words = Helpers.words_allocated (fun () -> for i = 0 to 63 do write (i mod 16) done) in
    checki "every access a dirty miss" (misses + 64) (Autarky.Oram_cache.misses cache);
    Alcotest.(check (float 0.)) "words per 64 dirty misses" 0. words
  end

let create_with ~n_blocks ~n_pages ~capacity_pages () =
  let sys = Helpers.autarky_system ~budget:64 () in
  let oram =
    Oram.Path_oram.create ~clock:(Harness.System.clock sys)
      ~rng:(Metrics.Rng.create ~seed:1L) ~n_blocks ()
  in
  Autarky.Oram_cache.create ~machine:(Harness.System.machine sys)
    ~enclave:(Harness.System.enclave sys) ~touch:(fun _ _ -> ()) ~oram
    ~data_base_vpage:(Harness.System.reserve sys ~pages:1) ~n_pages
    ~cache_base_vpage:(Harness.System.reserve sys ~pages:1) ~capacity_pages ()

let test_create_rejects_empty_region () =
  Helpers.check_invalid_arg ~naming:"n_pages"
    (create_with ~n_blocks:8 ~n_pages:0 ~capacity_pages:1)

let test_create_rejects_empty_cache () =
  Helpers.check_invalid_arg ~naming:"capacity_pages"
    (create_with ~n_blocks:8 ~n_pages:8 ~capacity_pages:0)

let test_create_rejects_region_beyond_oram () =
  Helpers.check_invalid_arg ~naming:"n_pages"
    (create_with ~n_blocks:8 ~n_pages:9 ~capacity_pages:1)

let test_policy_accessor_routing () =
  let sys, cache, base, _ = setup () in
  let rt = Harness.System.runtime_exn sys in
  let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
  let fallback_hits = ref 0 in
  let accessor =
    Autarky.Policy_oram.accessor pol ~fallback:(fun _ _ -> incr fallback_hits)
  in
  accessor (base * page) Types.Read;
  checki "data region went to cache" 1 (Autarky.Oram_cache.misses cache);
  accessor ((base + 1000) * page) Types.Read;
  checki "other region fell back" 1 !fallback_hits

let test_uncached_accessor_costs () =
  (* Every data access pays the full ORAM + scan cost. *)
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  let oram =
    Oram.Path_oram.create ~clock ~rng:(Metrics.Rng.create ~seed:4L)
      ~metadata:`Oblivious_scan ~n_blocks:64 ()
  in
  let accessor =
    Autarky.Policy_oram.uncached_accessor ~oram ~data_base_vpage:100 ~n_pages:64
      ~fallback:(fun _ _ -> ())
  in
  Metrics.Clock.reset clock;
  accessor (100 * page) Types.Read;
  let one = Metrics.Clock.now clock in
  accessor (100 * page) Types.Read;
  checkb "every access pays" true (Metrics.Clock.now clock >= 2 * one);
  checkb "cost includes scans" true (one >= Oram.Path_oram.access_cost oram)

let test_policy_oram_terminates_on_pinned_fault () =
  let sys, cache, _base, _ = setup () in
  let rt = Harness.System.runtime_exn sys in
  let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
  Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy pol);
  (* A fault on an enclave-managed non-resident page under ORAM policy
     is a misconfiguration/attack: terminate. *)
  let _burn = Harness.System.reserve sys ~pages:128 in
  let cold = Harness.System.reserve sys ~pages:1 in
  Harness.System.manage sys [ cold ];
  let vm = Harness.System.vm sys () in
  checkb "terminates" true
    (try vm.Workloads.Vm.read (cold * page); false
     with Types.Enclave_terminated _ -> true)

let suite =
  [
    ("hit/miss accounting", `Quick, test_hit_miss_accounting);
    ("data survives eviction", `Quick, test_data_survives_eviction);
    ("many pages consistency", `Quick, test_many_pages_consistency);
    ("region check", `Quick, test_region_check);
    ("oram traffic data-independent (always)", `Quick, test_oram_traffic_data_independent);
    ("dirty-only skips clean writebacks", `Quick, test_dirty_only_skips_clean_writebacks);
    ("dirty miss allocates nothing", `Quick, test_dirty_miss_allocates_nothing);
    ("create rejects n_pages 0", `Quick, test_create_rejects_empty_region);
    ("create rejects capacity_pages 0", `Quick, test_create_rejects_empty_cache);
    ("create rejects n_pages beyond the ORAM", `Quick,
     test_create_rejects_region_beyond_oram);
    ("policy accessor routing", `Quick, test_policy_accessor_routing);
    ("uncached accessor costs", `Quick, test_uncached_accessor_costs);
    ("oram policy terminates on pinned fault", `Quick,
     test_policy_oram_terminates_on_pinned_fault);
  ]
