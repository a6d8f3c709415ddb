(* Tests for the workload models: Vm, uthash, YCSB, the KV store,
   jpeg/spellcheck/fontrender, the Phoenix/PARSEC kernels and the nbench
   profiles. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let page = Sgx.Types.page_bytes

(* A simple bump allocator over a fake address space for workload-logic
   tests that need no hardware. *)
let bump_alloc () =
  let next = ref (0x100 * page) in
  fun ~bytes ->
    (* page-align sub-page objects like the real allocator would not;
       just never straddle for small objects *)
    let addr =
      if bytes < page && (!next mod page) + bytes > page then
        (!next / page * page) + page
      else !next
    in
    next := addr + bytes;
    addr

(* --- Vm ---------------------------------------------------------------- *)

let test_vm_recording () =
  let vm, rec_ = Workloads.Vm.recording () in
  vm.Workloads.Vm.read 100;
  vm.Workloads.Vm.write 200;
  vm.Workloads.Vm.exec 300;
  vm.Workloads.Vm.compute 42;
  vm.Workloads.Vm.progress ();
  checkb "events ordered" true
    (Workloads.Vm.events rec_
    = [ Workloads.Vm.Read 100; Workloads.Vm.Write 200; Workloads.Vm.Exec 300 ]);
  checki "progress" 1 (Workloads.Vm.progress_events rec_);
  checki "cycles" 42 (Workloads.Vm.computed_cycles rec_)

let test_vm_object_access_lines () =
  let vm, rec_ = Workloads.Vm.recording () in
  Workloads.Vm.read_object vm ~addr:0 ~bytes:256;
  checki "4 cache lines" 4 (List.length (Workloads.Vm.events rec_));
  let vm, rec_ = Workloads.Vm.recording () in
  Workloads.Vm.write_object vm ~addr:0 ~bytes:65;
  checki "2 lines for 65 bytes" 2 (List.length (Workloads.Vm.events rec_))

let test_vm_pages_touched () =
  let vm, rec_ = Workloads.Vm.recording () in
  vm.Workloads.Vm.read (3 * page);
  vm.Workloads.Vm.read ((3 * page) + 100);
  vm.Workloads.Vm.read (5 * page);
  checkb "distinct pages" true (Workloads.Vm.pages_touched rec_ = [ 3; 5 ])

(* --- Uthash ------------------------------------------------------------ *)

let make_table ?(n_items = 500) ?(target_chain = 5) () =
  let vm, rec_ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:42L in
  let t =
    Workloads.Uthash.create ~vm ~alloc:(bump_alloc ()) ~rng ~n_items
      ~item_bytes:256 ~target_chain
  in
  (t, vm, rec_)

let test_uthash_find_present () =
  let t, _, _ = make_table () in
  for key = 0 to 499 do
    checkb "every inserted key found" true (Workloads.Uthash.find t ~key)
  done

let test_uthash_find_absent () =
  let t, _, _ = make_table () in
  checkb "missing key" false (Workloads.Uthash.find t ~key:10_000)

let test_uthash_geometry () =
  let t, _, _ = make_table ~n_items:500 ~target_chain:5 () in
  checki "buckets" 100 (Workloads.Uthash.n_buckets t);
  checkb "mean chain around target" true (Workloads.Uthash.mean_chain_length t >= 4.0)

let test_uthash_rehash_shortens_chains () =
  let t, _, _ = make_table () in
  let before = Workloads.Uthash.mean_chain_length t in
  Workloads.Uthash.rehash t;
  checki "buckets doubled" 200 (Workloads.Uthash.n_buckets t);
  checkb "chains shorter" true (Workloads.Uthash.mean_chain_length t < before);
  for key = 0 to 499 do
    checkb "keys survive rehash" true (Workloads.Uthash.find t ~key)
  done

let test_uthash_probe_pages_match_traffic () =
  let t, _, rec_ = make_table () in
  let before = List.length (Workloads.Vm.events rec_) in
  ignore before;
  (* Clear recording by replaying onto a fresh recorder is not possible;
     instead compare probe_pages against freshly recorded find pages. *)
  let t2, _vm2, rec2 = make_table () in
  ignore t;
  let evts_before = List.length (Workloads.Vm.events rec2) in
  ignore evts_before;
  let key = 123 in
  let predicted = Workloads.Uthash.probe_pages t2 ~key in
  let trace_before = Workloads.Vm.pages_touched rec2 in
  ignore trace_before;
  let vm3, rec3 = Workloads.Vm.recording () in
  (* Re-create an identical table against a new recorder: same seed,
     same allocator layout -> same addresses. *)
  let rng = Metrics.Rng.create ~seed:42L in
  let t3 =
    Workloads.Uthash.create ~vm:vm3 ~alloc:(bump_alloc ()) ~rng ~n_items:500
      ~item_bytes:256 ~target_chain:5
  in
  let start = List.length (Workloads.Vm.events rec3) in
  ignore start;
  let vm4, rec4 = Workloads.Vm.recording () in
  ignore vm4;
  ignore rec4;
  (* use a wrapper table sharing t3's layout but a fresh recorder is not
     supported; check subset relation instead *)
  ignore (Workloads.Uthash.find t3 ~key);
  let touched = Workloads.Vm.pages_touched rec3 in
  checkb "probe pages ⊆ touched pages" true
    (List.for_all (fun p -> List.mem p touched) predicted)

let test_uthash_item_pages_cover_probes () =
  let t, _, _ = make_table () in
  let all =
    List.sort_uniq compare
      (Workloads.Uthash.item_pages t @ Workloads.Uthash.head_pages t)
  in
  for key = 0 to 99 do
    checkb "probe within table pages" true
      (List.for_all (fun p -> List.mem p all) (Workloads.Uthash.probe_pages t ~key))
  done

(* A warm lookup allocates nothing: the chain walk is a top-level
   recursion, not a closure over the table and the key. *)
let test_uthash_find_allocates_nothing () =
  let t =
    Workloads.Uthash.create ~vm:Workloads.Vm.null ~alloc:(bump_alloc ())
      ~rng:(Metrics.Rng.create ~seed:5L) ~n_items:512 ~item_bytes:256
      ~target_chain:10
  in
  ignore (Workloads.Uthash.find t ~key:7);
  if Helpers.native then
    Alcotest.(check (float 0.)) "words allocated by 600 lookups" 0.
      (Helpers.words_allocated (fun () ->
           for key = 0 to 599 do
             ignore (Workloads.Uthash.find t ~key)
           done))

(* Two words an item, its address and its chain successor, plus the
   bucket heads: 5.11 words an item with a record per item.  The
   geometry is the fleet's [ht] tenant's (320 heap pages, 12 keys a
   page, chains of 10). *)
let test_uthash_words_per_item () =
  let n_items = 3_840 in
  let t =
    Workloads.Uthash.create ~vm:Workloads.Vm.null ~alloc:(bump_alloc ())
      ~rng:(Metrics.Rng.create ~seed:5L) ~n_items ~item_bytes:256 ~target_chain:10
  in
  let per_item =
    float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int n_items
  in
  checkb (Printf.sprintf "%.2f words per item <= 2.2" per_item) true
    (per_item <= 2.2)

let uthash_with ?(n_items = 8) ?(item_bytes = 64) ?(target_chain = 2) () =
  Workloads.Uthash.create ~vm:Workloads.Vm.null ~alloc:(bump_alloc ())
    ~rng:(Metrics.Rng.create ~seed:1L) ~n_items ~item_bytes ~target_chain

let test_uthash_rejects_n_items () =
  Helpers.check_invalid_arg ~naming:"n_items" (fun () -> uthash_with ~n_items:0 ())

let test_uthash_rejects_item_bytes () =
  Helpers.check_invalid_arg ~naming:"item_bytes" (fun () ->
      uthash_with ~item_bytes:(-64) ())

let test_uthash_rejects_target_chain () =
  Helpers.check_invalid_arg ~naming:"target_chain" (fun () ->
      uthash_with ~target_chain:0 ())

let jpeg_with ?(blocks_w = 2) ?(blocks_h = 2) () =
  Workloads.Jpeg.create ~vm:Workloads.Vm.null ~alloc:(bump_alloc ()) ~blocks_w
    ~blocks_h

let test_jpeg_rejects_blocks_w () =
  Helpers.check_invalid_arg ~naming:"blocks_w" (fun () -> jpeg_with ~blocks_w:0 ())

let test_jpeg_rejects_blocks_h () =
  Helpers.check_invalid_arg ~naming:"blocks_h" (fun () -> jpeg_with ~blocks_h:0 ())

let font_with ?(glyphs = 4) ?(code_pages = 4) () =
  Workloads.Fontrender.create ~vm:Workloads.Vm.null ~alloc:(bump_alloc ()) ~glyphs
    ~code_pages

let test_font_rejects_glyphs () =
  Helpers.check_invalid_arg ~naming:"glyphs" (fun () -> font_with ~glyphs:0 ())

let test_font_rejects_code_pages () =
  Helpers.check_invalid_arg ~naming:"code_pages" (fun () -> font_with ~code_pages:1 ())

let test_kernels_rejects_units () =
  Helpers.check_invalid_arg ~naming:"units" (fun () ->
      Workloads.Kernels.run (Workloads.Kernels.find "kmeans") ~vm:Workloads.Vm.null
        ~rng:(Metrics.Rng.create ~seed:1L) ~units:0 ())

(* Everything a table does, hashed: the VM traffic it emits (events,
   compute cycles and progress, in order) and every value it returns,
   for two table geometries and spellcheck's 64-byte entries.  The
   constant was computed on the record-per-item layout; a change to the
   table's host representation must not move it. *)
let uthash_digest () =
  let h = ref Trace.Fnv.empty in
  let feed s = h := Trace.Fnv.feed_string !h s in
  let int i = feed (string_of_int i ^ ";") in
  let ints l = List.iter int l; feed "|" in
  let bool b = feed (if b then "T" else "F") in
  let traced () =
    let vm, rec_ = Workloads.Vm.recording () in
    let seen = ref 0 in
    let flush () =
      let evs = Workloads.Vm.events rec_ in
      List.iteri
        (fun i e ->
          if i >= !seen then
            match e with
            | Workloads.Vm.Read a -> feed "r"; int a
            | Workloads.Vm.Write a -> feed "w"; int a
            | Workloads.Vm.Exec a -> feed "x"; int a)
        evs;
      seen := List.length evs;
      int (Workloads.Vm.computed_cycles rec_);
      int (Workloads.Vm.progress_events rec_)
    in
    (vm, flush)
  in
  let lookups n =
    [ 0; 1; n / 3; n / 2; n - 1; n; n + 7; 2 * n; -1; -12_345; max_int ]
    @ List.init 24 (fun i -> i * 7919 mod n)
  in
  let table ~n_items ~item_bytes ~target_chain ~seed =
    let vm, flush = traced () in
    let rng = Metrics.Rng.create ~seed in
    let t =
      Workloads.Uthash.create ~vm ~alloc:(bump_alloc ()) ~rng ~n_items ~item_bytes
        ~target_chain
    in
    flush ();
    let state () =
      int (Workloads.Uthash.n_items t);
      int (Workloads.Uthash.n_buckets t);
      feed (Printf.sprintf "%h" (Workloads.Uthash.mean_chain_length t));
      ints (Workloads.Uthash.item_pages t);
      ints (Workloads.Uthash.head_pages t);
      List.iter
        (fun key ->
          if key >= 0 && key < n_items then int (Workloads.Uthash.item_page t ~key);
          ints (Workloads.Uthash.probe_pages t ~key);
          bool (Workloads.Uthash.find t ~key);
          flush ())
        (lookups n_items)
    in
    state ();
    Workloads.Uthash.rehash t;
    flush ();
    state ()
  in
  table ~n_items:500 ~item_bytes:256 ~target_chain:5 ~seed:42L;
  table ~n_items:3_840 ~item_bytes:100 ~target_chain:10 ~seed:7L;
  let vm, flush = traced () in
  let d =
    Workloads.Spellcheck.load_dictionary ~vm ~alloc:(bump_alloc ())
      ~rng:(Metrics.Rng.create ~seed:3L) ~name:"en" ~n_words:1_536 ()
  in
  flush ();
  ints (Workloads.Spellcheck.pages d);
  List.iter
    (fun word ->
      ints (Workloads.Spellcheck.signature d ~word);
      bool (Workloads.Spellcheck.check d ~word);
      flush ())
    (lookups 1_536);
  Trace.Fnv.to_hex !h

let test_uthash_traffic_digest () =
  Alcotest.(check string) "uthash traffic digest" "fnv64:603dd7b105a25b69"
    (uthash_digest ())

(* --- YCSB --------------------------------------------------------------- *)

let test_ycsb_workload_c_all_reads () =
  let rng = Metrics.Rng.create ~seed:1L in
  let dist = Metrics.Dist.uniform ~n:100 in
  let gen = Workloads.Ycsb.workload_c ~dist ~rng in
  for _ = 1 to 1_000 do
    match Workloads.Ycsb.next gen with
    | Workloads.Ycsb.Get k -> checkb "key in range" true (k >= 0 && k < 100)
    | _ -> Alcotest.fail "workload C must be all reads"
  done

let test_ycsb_workload_a_mix () =
  let rng = Metrics.Rng.create ~seed:2L in
  let dist = Metrics.Dist.uniform ~n:100 in
  let gen = Workloads.Ycsb.workload_a ~dist ~rng in
  let reads = ref 0 and updates = ref 0 in
  for _ = 1 to 10_000 do
    match Workloads.Ycsb.next gen with
    | Workloads.Ycsb.Get _ -> incr reads
    | Workloads.Ycsb.Put _ -> incr updates
    | _ -> Alcotest.fail "unexpected op"
  done;
  checkb "roughly 50/50" true (abs (!reads - !updates) < 600)

let test_ycsb_fractions_validated () =
  let rng = Metrics.Rng.create ~seed:3L in
  let dist = Metrics.Dist.uniform ~n:10 in
  checkb "bad fractions rejected" true
    (try
       ignore (Workloads.Ycsb.create ~read_fraction:0.9 ~dist ~rng ());
       false
     with Invalid_argument _ -> true)

(* --- Kvstore ------------------------------------------------------------ *)

let test_kvstore_get_set () =
  let vm, rec_ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:4L in
  let kv =
    Workloads.Kvstore.create ~vm ~alloc:(bump_alloc ()) ~rng ~n_entries:100
      ~value_bytes:1024 ()
  in
  checkb "get hit" true (Workloads.Kvstore.get kv ~key:5);
  checkb "get out of range" false (Workloads.Kvstore.get kv ~key:1_000);
  Workloads.Kvstore.set kv ~key:5;
  checkb "progress per op" true (Workloads.Vm.progress_events rec_ >= 2)

let kvstore_with ?(n_entries = 8) ?(value_bytes = 64) ?(slab_pages = 1) () =
  Workloads.Kvstore.create ~vm:Workloads.Vm.null ~alloc:(bump_alloc ())
    ~rng:(Metrics.Rng.create ~seed:1L) ~n_entries ~value_bytes ~slab_pages ()

let test_kvstore_rejects_n_entries () =
  Helpers.check_invalid_arg ~naming:"n_entries" (fun () ->
      kvstore_with ~n_entries:0 ())

let test_kvstore_rejects_value_bytes () =
  Helpers.check_invalid_arg ~naming:"value_bytes" (fun () ->
      kvstore_with ~value_bytes:0 ())

let test_kvstore_rejects_slab_pages () =
  Helpers.check_invalid_arg ~naming:"slab_pages" (fun () ->
      kvstore_with ~slab_pages:(-1) ())

let test_kvstore_value_read_lines () =
  let vm, rec_ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:5L in
  let kv =
    Workloads.Kvstore.create ~vm ~alloc:(bump_alloc ()) ~rng ~n_entries:10
      ~value_bytes:1024 ()
  in
  let before = List.length (Workloads.Vm.events rec_) in
  ignore (Workloads.Kvstore.get kv ~key:3);
  let events = List.length (Workloads.Vm.events rec_) - before in
  (* 1 index read + 16 value lines *)
  checki "access count" 17 events

let test_kvstore_data_region_covers_items () =
  let vm, _ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:6L in
  let kv =
    Workloads.Kvstore.create ~vm ~alloc:(bump_alloc ()) ~rng ~n_entries:200
      ~value_bytes:1024 ()
  in
  let first, count = Workloads.Kvstore.data_region kv in
  List.iter
    (fun p -> checkb "item page in region" true (p >= first && p < first + count))
    (Workloads.Kvstore.item_pages kv)

(* --- Jpeg ---------------------------------------------------------------- *)

let test_jpeg_trace_matches_image () =
  let vm, rec_ = Workloads.Vm.recording () in
  let codec = Workloads.Jpeg.create ~vm ~alloc:(bump_alloc ()) ~blocks_w:8 ~blocks_h:4 in
  let rng = Metrics.Rng.create ~seed:7L in
  let image = Workloads.Jpeg.random_image ~rng ~blocks_w:8 ~blocks_h:4 () in
  Workloads.Jpeg.decode codec ~image ();
  let fast = Workloads.Jpeg.fast_idct_page codec in
  let full = Workloads.Jpeg.full_idct_page codec in
  (* Reconstruct the IDCT path trace from the recorded exec events. *)
  let execs =
    List.filter_map
      (function
        | Workloads.Vm.Exec a ->
          let vp = a / page in
          if vp = fast then Some Workloads.Jpeg.Smooth
          else if vp = full then Some Workloads.Jpeg.Detailed
          else None
        | _ -> None)
      (Workloads.Vm.events rec_)
  in
  checkb "exec trace equals image" true (execs = Array.to_list image)

let test_jpeg_expected_trace_collapses () =
  let vm, _ = Workloads.Vm.recording () in
  let codec = Workloads.Jpeg.create ~vm ~alloc:(bump_alloc ()) ~blocks_w:4 ~blocks_h:1 in
  let image = Workloads.Jpeg.[| Smooth; Smooth; Detailed; Detailed |] in
  checkb "collapsed" true
    (Workloads.Jpeg.expected_trace codec ~image
    = Workloads.Jpeg.[ Smooth; Detailed ])

let test_jpeg_temp_buffer_small () =
  let vm, _ = Workloads.Vm.recording () in
  let codec =
    Workloads.Jpeg.create ~vm ~alloc:(bump_alloc ()) ~blocks_w:256 ~blocks_h:256
  in
  (* Working set independent of image height: input ring (2) + coef (1)
     + the 8-scanline row buffer (256*8*3*8 bytes = 12 pages). *)
  checkb "temp pages bounded" true
    (List.length (Workloads.Jpeg.temp_pages codec) <= 16)

let test_jpeg_output_bytes () =
  let vm, _ = Workloads.Vm.recording () in
  let codec = Workloads.Jpeg.create ~vm ~alloc:(bump_alloc ()) ~blocks_w:10 ~blocks_h:5 in
  checki "output size" (80 * 40 * 3) (Workloads.Jpeg.output_bytes codec)

(* --- Spellcheck ----------------------------------------------------------- *)

let test_spellcheck_check () =
  let vm, _ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:8L in
  let d =
    Workloads.Spellcheck.load_dictionary ~vm ~alloc:(bump_alloc ()) ~rng
      ~name:"en" ~n_words:200 ()
  in
  checkb "correct word" true (Workloads.Spellcheck.check d ~word:42);
  checkb "misspelled word" false (Workloads.Spellcheck.check d ~word:5_000);
  checki "word count" 200 (Workloads.Spellcheck.n_words d)

let test_spellcheck_rejects_n_words () =
  Helpers.check_invalid_arg ~naming:"n_words" (fun () ->
      Workloads.Spellcheck.load_dictionary ~vm:Workloads.Vm.null
        ~alloc:(bump_alloc ()) ~rng:(Metrics.Rng.create ~seed:1L) ~name:"en"
        ~n_words:0 ())

let test_spellcheck_signatures_discriminate () =
  let vm, _ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:9L in
  let d =
    Workloads.Spellcheck.load_dictionary ~vm ~alloc:(bump_alloc ()) ~rng
      ~name:"en" ~n_words:500 ()
  in
  (* Most word pairs have distinct page signatures — that is the leak. *)
  let distinct = ref 0 in
  for w = 0 to 99 do
    if
      Workloads.Spellcheck.signature d ~word:w
      <> Workloads.Spellcheck.signature d ~word:(w + 100)
    then incr distinct
  done;
  checkb "mostly distinct" true (!distinct > 80)

let test_spellcheck_text_zipf () =
  let rng = Metrics.Rng.create ~seed:10L in
  let text = Workloads.Spellcheck.word_text ~rng ~vocabulary:1_000 ~length:5_000 in
  checki "length" 5_000 (Array.length text);
  Array.iter (fun w -> checkb "in vocab" true (w >= 0 && w < 1_000)) text

(* --- Fontrender ------------------------------------------------------------ *)

let test_fontrender_signatures_deterministic () =
  let vm, _ = Workloads.Vm.recording () in
  let f = Workloads.Fontrender.create ~vm ~alloc:(bump_alloc ()) ~glyphs:64 ~code_pages:12 in
  let vm2, _ = Workloads.Vm.recording () in
  let f2 = Workloads.Fontrender.create ~vm:vm2 ~alloc:(bump_alloc ()) ~glyphs:64 ~code_pages:12 in
  for g = 0 to 63 do
    let rel t s = List.map (fun p -> p - List.hd (Workloads.Fontrender.code_pages t)) s in
    checkb "same signature across instances" true
      (rel f (Workloads.Fontrender.glyph_signature f g)
      = rel f2 (Workloads.Fontrender.glyph_signature f2 g))
  done

let test_fontrender_render_traffic () =
  let vm, rec_ = Workloads.Vm.recording () in
  let f = Workloads.Fontrender.create ~vm ~alloc:(bump_alloc ()) ~glyphs:32 ~code_pages:8 in
  Workloads.Fontrender.render f [| 1; 2; 3 |];
  checki "three progress events" 3 (Workloads.Vm.progress_events rec_);
  let execs =
    List.filter (function Workloads.Vm.Exec _ -> true | _ -> false)
      (Workloads.Vm.events rec_)
  in
  let expected =
    List.length (Workloads.Fontrender.glyph_signature f 1)
    + List.length (Workloads.Fontrender.glyph_signature f 2)
    + List.length (Workloads.Fontrender.glyph_signature f 3)
  in
  checki "exec per signature entry" expected (List.length execs)

(* --- Kernels & nbench -------------------------------------------------------- *)

let test_kernels_suite_complete () =
  checki "14 applications" 14 (List.length Workloads.Kernels.suite);
  let phoenix =
    List.length (List.filter (fun s -> s.Workloads.Kernels.suite = `Phoenix)
                   Workloads.Kernels.suite)
  in
  checki "6 Phoenix apps" 6 phoenix;
  checkb "find works" true ((Workloads.Kernels.find "canneal").ws_pages > 25_600)

let test_kernels_run_traffic () =
  let vm, rec_ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:11L in
  let spec = Workloads.Kernels.find "kmeans" in
  Workloads.Kernels.run spec ~vm ~rng ~units:3 ();
  checki "3 progress units" 3 (Workloads.Vm.progress_events rec_);
  checki "accesses per unit" (3 * spec.accesses_per_unit)
    (List.length (Workloads.Vm.events rec_));
  (* All accesses within the working set. *)
  List.iter
    (fun p -> checkb "within ws" true (p >= 0 && p < spec.ws_pages))
    (Workloads.Vm.pages_touched rec_)

let test_kernels_touch_all () =
  let vm, rec_ = Workloads.Vm.recording () in
  let spec = Workloads.Kernels.find "swap" in
  Workloads.Kernels.touch_all spec ~vm ();
  checki "every ws page" spec.ws_pages
    (List.length (Workloads.Vm.pages_touched rec_))

let test_nbench_profiles () =
  checki "10 applications" 10 (List.length Workloads.Nbench.apps);
  let vm, rec_ = Workloads.Vm.recording () in
  let rng = Metrics.Rng.create ~seed:12L in
  Workloads.Nbench.run (List.hd Workloads.Nbench.apps) ~vm ~rng ~accesses:1_000;
  checki "access count" 1_000 (List.length (Workloads.Vm.events rec_))

let test_nbench_analytic_slowdown () =
  checkb "formula" true
    (abs_float
       (Workloads.Nbench.analytic_slowdown ~check_cycles:10 ~fills:7
          ~base_cycles:100_000
       -. 0.0007)
    < 1e-9);
  checkb "zero base" true
    (Workloads.Nbench.analytic_slowdown ~check_cycles:10 ~fills:7 ~base_cycles:0
    = 0.0)

(* --- serving load generators ------------------------------------------- *)

let test_loadgen_deterministic () =
  let gaps seed =
    let rng = Metrics.Rng.create ~seed in
    List.init 200 (fun i ->
        if i mod 3 = 0 then Workloads.Loadgen.exp_gap rng ~mean:5_000.0
        else if i mod 3 = 1 then
          Workloads.Loadgen.pareto_gap rng ~mean:5_000.0 ~alpha:1.5
        else
          Workloads.Loadgen.diurnal_gap rng ~mean:5_000.0 ~depth:0.5
            ~period:100_000 ~at:(i * 1_000))
  in
  checkb "same seed, same gaps" true (gaps 9L = gaps 9L);
  checkb "different seed differs" true (gaps 9L <> gaps 10L)

let test_loadgen_gaps_positive () =
  let rng = Metrics.Rng.create ~seed:5L in
  for _ = 1 to 1_000 do
    checkb "exp >= 1" true (Workloads.Loadgen.exp_gap rng ~mean:0.01 >= 1);
    checkb "pareto >= 1" true
      (Workloads.Loadgen.pareto_gap rng ~mean:0.01 ~alpha:2.0 >= 1);
    checkb "diurnal >= 1" true
      (Workloads.Loadgen.diurnal_gap rng ~mean:0.01 ~depth:0.8 ~period:100 ~at:25
      >= 1)
  done

let test_pareto_mean_matches_load () =
  (* The scale is derived so E[gap] = mean: the sample mean over many
     draws must land near it (alpha = 2.5 has finite variance). *)
  let rng = Metrics.Rng.create ~seed:17L in
  let n = 60_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Workloads.Loadgen.pareto_gap rng ~mean:10_000.0 ~alpha:2.5
  done;
  let m = float_of_int !sum /. float_of_int n in
  if abs_float (m -. 10_000.0) > 600.0 then
    Alcotest.failf "pareto sample mean %.0f too far from 10000" m

let test_pareto_heavier_tail_than_exp () =
  let max_of f =
    let rng = Metrics.Rng.create ~seed:23L in
    let m = ref 0 in
    for _ = 1 to 20_000 do
      m := max !m (f rng)
    done;
    !m
  in
  let pareto_max = max_of (Workloads.Loadgen.pareto_gap ~mean:1_000.0 ~alpha:1.5) in
  let exp_max = max_of (Workloads.Loadgen.exp_gap ~mean:1_000.0) in
  checkb "pareto tail dominates" true (pareto_max > 2 * exp_max)

let test_pareto_validates_alpha () =
  let rng = Metrics.Rng.create ~seed:1L in
  checkb "alpha <= 1 rejected" true
    (match Workloads.Loadgen.pareto_gap rng ~mean:100.0 ~alpha:1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_diurnal_factor_shape () =
  let period = 1_000 in
  let f at = Workloads.Loadgen.diurnal_factor ~depth:0.5 ~period ~at in
  checkb "peak above trough" true (f (period / 4) > f (3 * period / 4));
  checkb "periodic" true (abs_float (f 123 -. f (123 + period)) < 1e-9);
  checkb "bounded above" true (f (period / 4) <= 1.5 +. 1e-9);
  (* Depth near 1 would stall the trough without the clamp. *)
  let g at = Workloads.Loadgen.diurnal_factor ~depth:0.99 ~period ~at in
  checkb "trough clamped" true (g (3 * period / 4) >= 0.1 -. 1e-9);
  checkb "bad period rejected" true
    (match Workloads.Loadgen.diurnal_factor ~depth:0.5 ~period:0 ~at:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "bad depth rejected" true
    (match Workloads.Loadgen.diurnal_factor ~depth:1.0 ~period ~at:0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    ("vm recording", `Quick, test_vm_recording);
    ("vm object access lines", `Quick, test_vm_object_access_lines);
    ("vm pages touched", `Quick, test_vm_pages_touched);
    ("uthash find present", `Quick, test_uthash_find_present);
    ("uthash find absent", `Quick, test_uthash_find_absent);
    ("uthash geometry", `Quick, test_uthash_geometry);
    ("uthash rehash shortens chains", `Quick, test_uthash_rehash_shortens_chains);
    ("uthash probe pages subset", `Quick, test_uthash_probe_pages_match_traffic);
    ("uthash item pages cover probes", `Quick, test_uthash_item_pages_cover_probes);
    ("uthash traffic digest", `Quick, test_uthash_traffic_digest);
    ("uthash find allocates nothing", `Quick, test_uthash_find_allocates_nothing);
    ("uthash words per item", `Quick, test_uthash_words_per_item);
    ("uthash create rejects n_items", `Quick, test_uthash_rejects_n_items);
    ("uthash create rejects item_bytes", `Quick, test_uthash_rejects_item_bytes);
    ("uthash create rejects target_chain", `Quick, test_uthash_rejects_target_chain);
    ("jpeg create rejects blocks_w", `Quick, test_jpeg_rejects_blocks_w);
    ("jpeg create rejects blocks_h", `Quick, test_jpeg_rejects_blocks_h);
    ("fontrender create rejects glyphs", `Quick, test_font_rejects_glyphs);
    ("fontrender create rejects code_pages", `Quick, test_font_rejects_code_pages);
    ("kernels run rejects units", `Quick, test_kernels_rejects_units);
    ("ycsb workload C all reads", `Quick, test_ycsb_workload_c_all_reads);
    ("ycsb workload A mix", `Quick, test_ycsb_workload_a_mix);
    ("ycsb fractions validated", `Quick, test_ycsb_fractions_validated);
    ("kvstore get/set", `Quick, test_kvstore_get_set);
    ("kvstore create rejects n_entries", `Quick, test_kvstore_rejects_n_entries);
    ("kvstore create rejects value_bytes", `Quick, test_kvstore_rejects_value_bytes);
    ("kvstore create rejects slab_pages", `Quick, test_kvstore_rejects_slab_pages);
    ("kvstore value read lines", `Quick, test_kvstore_value_read_lines);
    ("kvstore data region covers items", `Quick, test_kvstore_data_region_covers_items);
    ("jpeg trace matches image", `Quick, test_jpeg_trace_matches_image);
    ("jpeg expected trace collapses", `Quick, test_jpeg_expected_trace_collapses);
    ("jpeg temp buffer small", `Quick, test_jpeg_temp_buffer_small);
    ("jpeg output bytes", `Quick, test_jpeg_output_bytes);
    ("spellcheck check", `Quick, test_spellcheck_check);
    ("spellcheck load rejects n_words", `Quick, test_spellcheck_rejects_n_words);
    ("spellcheck signatures discriminate", `Quick,
     test_spellcheck_signatures_discriminate);
    ("spellcheck text zipf", `Quick, test_spellcheck_text_zipf);
    ("fontrender deterministic signatures", `Quick,
     test_fontrender_signatures_deterministic);
    ("fontrender render traffic", `Quick, test_fontrender_render_traffic);
    ("kernels suite complete", `Quick, test_kernels_suite_complete);
    ("kernels run traffic", `Quick, test_kernels_run_traffic);
    ("kernels touch all", `Quick, test_kernels_touch_all);
    ("nbench profiles", `Quick, test_nbench_profiles);
    ("nbench analytic slowdown", `Quick, test_nbench_analytic_slowdown);
    ("loadgen deterministic", `Quick, test_loadgen_deterministic);
    ("loadgen gaps positive", `Quick, test_loadgen_gaps_positive);
    ("pareto mean matches load", `Quick, test_pareto_mean_matches_load);
    ("pareto heavier tail than exp", `Quick, test_pareto_heavier_tail_than_exp);
    ("pareto validates alpha", `Quick, test_pareto_validates_alpha);
    ("diurnal factor shape", `Quick, test_diurnal_factor_shape);
  ]
