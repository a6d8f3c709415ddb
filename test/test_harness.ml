(* Tests for the harness: system wiring, address-space carving,
   measurement, and the report formatters. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_reserve_carving () =
  let sys = Helpers.autarky_system ~enclave_pages:64 () in
  let a = Harness.System.reserve sys ~pages:10 in
  let b = Harness.System.reserve sys ~pages:10 in
  checki "contiguous" (a + 10) b;
  checkb "within enclave" true
    (Sgx.Enclave.contains_vpage (Harness.System.enclave sys) a);
  checkb "exhaustion detected" true
    (try ignore (Harness.System.reserve sys ~pages:1_000); false
     with Invalid_argument _ -> true)

let test_allocator_region () =
  let sys = Helpers.autarky_system () in
  let heap = Harness.System.allocator sys ~pages:32 ~cluster_pages:4 in
  let p = Autarky.Allocator.alloc_page heap in
  checkb "allocates inside enclave" true
    (Sgx.Enclave.contains_vpage (Harness.System.enclave sys) p);
  checkb "clusters registry shared" true
    (Autarky.Clusters.registered (Harness.System.clusters_of heap) p)

let test_vm_routes_to_cpu () =
  let sys = Helpers.autarky_system () in
  let b = Harness.System.reserve sys ~pages:1 in
  let vm = Harness.System.vm sys () in
  vm.Workloads.Vm.read (b * Sgx.Types.page_bytes);
  checkb "tlb miss recorded" true
    (Metrics.Counters.get (Harness.System.counters sys) "mmu.tlb_miss" > 0)

let test_vm_instrument_override () =
  let sys = Helpers.autarky_system () in
  let hits = ref 0 in
  let vm = Harness.System.vm sys ~instrument:(fun _ _ -> incr hits) () in
  vm.Workloads.Vm.read 0;
  vm.Workloads.Vm.write 0;
  vm.Workloads.Vm.exec 0;
  checki "all three routed" 3 !hits

let test_vm_compute_charges () =
  let sys = Helpers.autarky_system () in
  let vm = Harness.System.vm sys () in
  let before = Metrics.Clock.now (Harness.System.clock sys) in
  vm.Workloads.Vm.compute 12345;
  checki "charged" (before + 12345) (Metrics.Clock.now (Harness.System.clock sys))

let test_pin_makes_resident () =
  let sys = Helpers.autarky_system () in
  let _burn = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:8 in
  let pages = List.init 8 (fun i -> b + i) in
  Harness.System.pin sys pages;
  let pager = Autarky.Runtime.pager (Harness.System.runtime_exn sys) in
  checkb "all resident" true (List.for_all (Autarky.Pager.resident pager) pages)

let test_measure_resets_and_counts () =
  let sys = Helpers.autarky_system () in
  let b = Harness.System.reserve sys ~pages:1 in
  let vm = Harness.System.vm sys () in
  (* Pollute the clock, then measure a known phase. *)
  Sgx.Machine.charge (Harness.System.machine sys) 1_000_000;
  let r =
    Harness.Measure.run sys (fun () -> vm.Workloads.Vm.compute 5_000)
  in
  let cm = Metrics.Cost_model.default in
  checki "clock was reset (eenter+eexit+compute)" (cm.eenter + cm.eexit + 5_000)
    r.Harness.Measure.cycles;
  checki "no faults" 0 r.Harness.Measure.page_faults;
  checkb "seconds positive" true (r.Harness.Measure.seconds > 0.0);
  ignore b

let test_measure_throughput_math () =
  let r =
    { Harness.Measure.cycles = 3_900_000_000; seconds = 1.0; page_faults = 50;
      tlb_misses = 0; pages_fetched = 0; pages_evicted = 0; counters = [] }
  in
  checkb "ops/s" true (Harness.Measure.throughput r ~ops:100 = 100.0);
  checkb "faults/s" true (Harness.Measure.fault_rate r = 50.0)

let test_legacy_system_has_no_runtime () =
  let sys = Helpers.legacy_system () in
  checkb "no runtime" true (Harness.System.runtime sys = None);
  checkb "runtime_exn raises" true
    (try ignore (Harness.System.runtime_exn sys); false
     with Invalid_argument _ -> true)

let test_report_formatters () =
  Alcotest.(check string) "pct" "6.30%" (Harness.Report.pct 0.063);
  Alcotest.(check string) "si k" "12.4k" (Harness.Report.si 12_400.0);
  Alcotest.(check string) "si M" "3.50M" (Harness.Report.si 3_500_000.0);
  Alcotest.(check string) "si G" "2.00G" (Harness.Report.si 2e9);
  Alcotest.(check string) "si small" "42.0" (Harness.Report.si 42.0);
  Alcotest.(check string) "f2" "3.14" (Harness.Report.f2 3.14159)

(* --- bench-report schema validation ------------------------------------ *)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let mini_serve3 =
  {|{
  "schema": "autarky-serve/3",
  "scenario": "fleet",
  "quick": true,
  "seed": 7,
  "tenants_n": 1,
  "members": [
    {"member": 0, "seed": 7, "end_cycle": 10, "virtual_seconds": 0.00,
     "arbiter_moves": 0}
  ],
  "totals": {"arrivals": 4, "served": 4, "shed": 0, "deadline_missed": 0,
    "joins": 0, "departures": 0, "refused": 0, "boot_cycles_total": 0},
  "fleet_latency": {"rel_error": 0.03125, "count": 4, "mean": 1.0,
    "p50": 1.0, "p95": 2.0, "p99": 2.0, "max": 2.0},
  "tenants": [
    {"member": 0, "name": "kv000", "workload": "kvstore",
     "policy": "clusters", "generator": "open(load=0.60)", "arrivals": 4,
     "served": 4, "shed": 0, "deadline_missed": 0, "terminations": 0,
     "restarts": 0, "refused": false, "departed": false, "arrive_after": 0,
     "depart_after": -1, "boot_cycles": 0, "faults": 0,
     "svc_mean_cycles": 1.0, "throughput_rps": 1.0, "shed_rate": 0.00,
     "latency_cycles": {"count": 4, "mean": 1.0, "p50": 1.0, "p95": 2.0,
       "p99": 2.0, "max": 2.0}}
  ]
}|}

let test_schema_accepts_valid () =
  match
    Harness.Schema.validate ~ctx:"mini" (Harness.Microjson.of_string mini_serve3)
  with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es)

let test_schema_rejects_unknown () =
  let doc = {|{"schema": "autarky-mystery/9", "quick": true}|} in
  match Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string doc) with
  | Ok () -> Alcotest.fail "unknown schema accepted"
  | Error [ e ] ->
    Alcotest.(check bool) "mentions schema" true
      (contains ~affix:"unknown schema" e)
  | Error es -> Alcotest.failf "expected one error, got %d" (List.length es)

let test_schema_rejects_missing_schema_field () =
  match
    Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string {|{"quick": true}|})
  with
  | Ok () -> Alcotest.fail "schemaless document accepted"
  | Error _ -> ()

let test_schema_rejects_missing_row_key () =
  (* Drop a required row key and the validator must name it. *)
  let doc =
    (* Cut the boot_cycles key out of the valid document. *)
    let needle = {|"boot_cycles": 0,|} in
    let i =
      let n = String.length mini_serve3 and m = String.length needle in
      let rec go i =
        if i + m > n then -1
        else if String.sub mini_serve3 i m = needle then i
        else go (i + 1)
      in
      go 0
    in
    String.sub mini_serve3 0 i
    ^ String.sub mini_serve3
        (i + String.length needle)
        (String.length mini_serve3 - i - String.length needle)
  in
  match Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string doc) with
  | Ok () -> Alcotest.fail "missing row key accepted"
  | Error es ->
    Alcotest.(check bool) "names the key" true
      (List.exists (fun e -> contains ~affix:"boot_cycles" e) es)

let test_schema_rejects_wrong_shape () =
  let doc = {|{"schema": "autarky-serve/3", "scenario": "fleet", "quick": 1,
               "seed": 7, "tenants_n": 1, "members": [], "totals": {},
               "fleet_latency": {}, "tenants": []}|} in
  match Harness.Schema.validate ~ctx:"x" (Harness.Microjson.of_string doc) with
  | Ok () -> Alcotest.fail "bool-typed field accepted as number"
  | Error es ->
    Alcotest.(check bool) "names quick" true
      (List.exists (fun e -> contains ~affix:{|"quick"|} e) es)

(* --- JSON reader and the perf gate on malformed input ------------------- *)

let test_microjson_int_exact () =
  let int_of s = Harness.Microjson.(int_ ~ctx:"t" (of_string s)) in
  checki "integral" 42 (int_of "42");
  checki "negative" (-7) (int_of "-7");
  checki "exponent form" 1000 (int_of "1e3");
  let rejected s =
    match int_of s with
    | exception Harness.Microjson.Parse_error _ -> true
    | _ -> false
  in
  checkb "fraction rejected" true (rejected "1.5");
  checkb "above the int range rejected" true (rejected "1e19");
  checkb "below the int range rejected" true (rejected "-1e19");
  checkb "2^62 rejected" true (rejected "4611686018427387904")

let test_perf_check_malformed () =
  (* Each unreadable baseline is a failed check, never an exception. *)
  let file = Filename.temp_file "perf_check" ".json" in
  let fails name contents =
    let oc = open_out_bin file in
    output_string oc contents;
    close_out oc;
    checkb name false (Harness.Perf.check ~baseline:file ())
  in
  fails "not a perf report" mini_serve3;
  fails "not JSON" "{\"schema\": ";
  fails "perf report without a matrix"
    {|{"schema": "autarky-perf/2", "quick": true, "seed": 1}|};
  Sys.remove file;
  checkb "missing file" false (Harness.Perf.check ~baseline:file ())

(* With [alloc_ceiling], every cell is held to its baseline cell's
   allocation within [tolerance], not only the matrix median. *)
let test_perf_check_alloc_per_cell () =
  let report alloc_b =
    Printf.sprintf
      {|{"schema": "autarky-perf/2", "quick": true, "seed": 1, "matrix": [
  {"workload": "ycsb", "policy": "clusters", "mech": "sgx1", "ops": 10,
   "accesses": 100, "modeled_cycles_per_access": 5.0, "page_faults": 3,
   "wall_ns_per_access": 1.0, "alloc_bytes_per_access": 10.0},
  {"workload": "ycsb", "policy": "rate-limit", "mech": "sgx1", "ops": 10,
   "accesses": 100, "modeled_cycles_per_access": 5.0, "page_faults": 3,
   "wall_ns_per_access": 1.0, "alloc_bytes_per_access": %g}]}|}
      alloc_b
  in
  let write contents =
    let file = Filename.temp_file "perf_check" ".json" in
    let oc = open_out_bin file in
    output_string oc contents;
    close_out oc;
    file
  in
  let base = write (report 100.0) in
  let within = write (report 120.0) and over = write (report 130.0) in
  let check against ?alloc_ceiling () =
    Harness.Perf.check ~baseline:base ~against ~tolerance:0.25 ?alloc_ceiling ()
  in
  checkb "alloc informational without a ceiling" true (check over ());
  checkb "cell within tolerance passes" true (check within ~alloc_ceiling:1000. ());
  checkb "cell over tolerance fails under a passing median" false
    (check over ~alloc_ceiling:1000. ());
  List.iter Sys.remove [ base; within; over ]

(* --- Tenant footprint ----------------------------------------------- *)

(* One tenant at the 100-tenant fleet's geometry (the serving [kv]
   tenant's): a 512-page self-paging enclave with an EPC limit of 128 on
   a 320-frame machine, with 128 heap pages allocated and managed, so
   384 pages start in the swap store. *)
let fleet_tenant () =
  let sys =
    Harness.System.create ~epc_frames:320 ~epc_limit:128 ~enclave_pages:512
      ~self_paging:true ()
  in
  let heap = Harness.System.allocator sys ~pages:128 ~cluster_pages:10 in
  for _ = 1 to 128 do
    ignore (Autarky.Allocator.alloc heap ~bytes:Sgx.Types.page_bytes)
  done;
  Harness.System.manage sys (Autarky.Allocator.allocated_pages heap);
  sys

let tenant_swap sys = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys)

(* Heap words reachable from the tenant.  Measured on this geometry:
   106,711 words with hashed per-page tables pre-sized to 4,096 slots,
   56,514 words with window tables, 49,346 with sealed pages as flat
   rows, 46,196 with one packed EPCM int per frame and 40,726 with
   boot pages sealed on first read and tables grown by a quarter.  The
   bound sits between the last two. *)
let footprint_bound = 44_000

let test_tenant_footprint () =
  let words = Obj.reachable_words (Obj.repr (fleet_tenant ())) in
  checkb
    (Printf.sprintf "%d words < %d" words footprint_bound)
    true (words < footprint_bound)

(* A stored V1 page, once read (the read seals a deferred boot page),
   is its 13-word row (88 bytes: 64 of ciphertext and the
   vaddr/version/MAC trailer) and an immediate PCMD int; a blob record
   with its boxes was 37 words. *)
let test_stored_page_words () =
  let swap = tenant_swap (fleet_tenant ()) in
  let entry = ref None in
  Sim_os.Swap_store.iter
    (fun row pcmd -> if !entry = None then entry := Some (row, pcmd))
    swap;
  match !entry with
  | None -> Alcotest.fail "no page in the swap store"
  | Some (row, pcmd) ->
    let words = Obj.reachable_words (Obj.repr row) in
    checkb (Printf.sprintf "row of %d words <= 14" words) true (words <= 14);
    checkb "PCMD is an immediate" true (Obj.is_int (Obj.repr pcmd));
    checkb "PCMD of an EWB'd page" true (pcmd <> Sim_os.Swap_store.runtime_sealed)

(* The whole swap store per swapped page: the entry, PCMD and version
   slots, the vpage index and the growth slack.  The 384 boot pages are
   deferred and all zero, so an entry is a pointer to the shared zero
   page.  Measured: 42.4 B (16.3 KB for the 384 pages); 137.7 B with a
   row sealed at boot, 287 B with blob records. *)
let test_swap_store_bytes_per_page () =
  let swap = tenant_swap (fleet_tenant ()) in
  let pages = Sim_os.Swap_store.size swap in
  let per_page =
    float_of_int (8 * Obj.reachable_words (Obj.repr swap)) /. float_of_int pages
  in
  checki "swapped pages" 384 pages;
  checkb (Printf.sprintf "%.1f B per swapped page <= 56" per_page) true
    (per_page <= 56.)

(* --- Memory ledger -------------------------------------------------- *)

(* A structure whose blocks no other owner reaches: the ledger's count
   of it equals the words reachable from it, so a block counted twice
   inside it fails here however small it is.  The fleet-wide check
   ("footprint reconciles with reachable words", [test serve]) only
   catches a double count larger than the unattributed rest. *)
let ledger_words footprint x =
  let acc = Metrics.Words.create () in
  footprint x acc;
  List.fold_left (fun n c -> n + Metrics.Words.words acc c) 0 Metrics.Words.classes

let reach x = Obj.reachable_words (Obj.repr x)

let test_ledger_counts_owned_structures_exactly () =
  let sys = fleet_tenant () in
  let machine = Harness.System.machine sys in
  let swap = tenant_swap sys in
  (* Seal a few deferred boot pages, so the store holds sealed rows,
     the shared zero page and vacant slots. *)
  let enclave = Harness.System.enclave sys in
  let sealed = ref 0 in
  for i = 0 to enclave.Sgx.Enclave.size_pages - 1 do
    let vp = enclave.Sgx.Enclave.base_vpage + i in
    if !sealed < 5 && Sim_os.Swap_store.mem swap vp then begin
      ignore (Sim_os.Swap_store.slot swap vp);
      incr sealed
    end
  done;
  checki "rows sealed" 5 !sealed;
  checki "swap store, its sealer aside"
    (reach swap - reach machine.Sgx.Machine.sealer)
    (ledger_words Sim_os.Swap_store.footprint swap);
  checki "epc" (reach machine.Sgx.Machine.epc) (ledger_words Sgx.Epc.footprint machine.Sgx.Machine.epc);
  checki "tlb" (reach machine.Sgx.Machine.tlb) (ledger_words Sgx.Tlb.footprint machine.Sgx.Machine.tlb);
  let flat = Sgx.Flat.create () in
  for k = 300 downto 100 do
    if k mod 3 <> 0 then Sgx.Flat.set flat k k
  done;
  checki "flat window" (reach flat) (ledger_words Sgx.Flat.footprint flat);
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  let rng = Metrics.Rng.create ~seed:5L in
  let oram = Oram.Path_oram.create ~clock ~rng ~n_blocks:64 () in
  for b = 0 to 19 do
    Oram.Path_oram.write oram ~block:(b * 3) (Sgx.Page_data.create ())
  done;
  (* The pair's block is three words. *)
  checki "oram, its clock and rng aside"
    (reach oram - (reach (clock, rng) - 3))
    (ledger_words Oram.Path_oram.footprint oram)

let suite =
  [
    ("reserve carving", `Quick, test_reserve_carving);
    ("allocator region", `Quick, test_allocator_region);
    ("vm routes to cpu", `Quick, test_vm_routes_to_cpu);
    ("vm instrument override", `Quick, test_vm_instrument_override);
    ("vm compute charges", `Quick, test_vm_compute_charges);
    ("pin makes resident", `Quick, test_pin_makes_resident);
    ("measure resets and counts", `Quick, test_measure_resets_and_counts);
    ("measure throughput math", `Quick, test_measure_throughput_math);
    ("legacy system has no runtime", `Quick, test_legacy_system_has_no_runtime);
    ("report formatters", `Quick, test_report_formatters);
    ("schema accepts valid report", `Quick, test_schema_accepts_valid);
    ("schema rejects unknown schema", `Quick, test_schema_rejects_unknown);
    ("schema rejects missing schema field", `Quick,
     test_schema_rejects_missing_schema_field);
    ("schema rejects missing row key", `Quick,
     test_schema_rejects_missing_row_key);
    ("schema rejects wrong shape", `Quick, test_schema_rejects_wrong_shape);
    ("microjson int_ rejects non-integers", `Quick, test_microjson_int_exact);
    ("perf check fails cleanly on malformed input", `Quick,
     test_perf_check_malformed);
    ("perf check gates alloc per cell", `Quick, test_perf_check_alloc_per_cell);
    ("tenant footprint stays small", `Quick, test_tenant_footprint);
    ("a stored page is one small row", `Quick, test_stored_page_words);
    ("swap store bytes per swapped page", `Quick, test_swap_store_bytes_per_page);
    ("ledger counts owned structures exactly", `Quick,
     test_ledger_counts_owned_structures_exactly);
  ]
