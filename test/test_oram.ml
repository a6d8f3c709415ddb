(* Tests for PathORAM: correctness (read-your-writes across arbitrary
   access sequences), structure, stash behaviour, cost accounting, and
   the obliviousness property (leaf sequences are fresh-random). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let make ?(n_blocks = 64) ?metadata () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  let rng = Metrics.Rng.create ~seed:77L in
  let oram =
    match metadata with
    | Some md -> Oram.Path_oram.create ~clock ~rng ~metadata:md ~n_blocks ()
    | None -> Oram.Path_oram.create ~clock ~rng ~n_blocks ()
  in
  (clock, oram)

let stamp v =
  let d = Sgx.Page_data.create () in
  Sgx.Page_data.fill_int d v;
  d

let test_geometry () =
  let _, oram = make ~n_blocks:64 () in
  checki "levels for 64 leaves" 7 (Oram.Path_oram.levels oram);
  checki "leaves" 64 (Oram.Path_oram.leaves oram);
  let _, oram = make ~n_blocks:65 () in
  checki "leaves round up" 128 (Oram.Path_oram.leaves oram)

let test_write_read () =
  let _, oram = make () in
  Oram.Path_oram.write oram ~block:7 (stamp 707);
  checki "read back" 707 (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:7))

let test_fresh_block_zero () =
  let _, oram = make () in
  checki "fresh block is zero" 0
    (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:3))

let test_many_blocks_roundtrip () =
  let _, oram = make ~n_blocks:64 () in
  for b = 0 to 63 do
    Oram.Path_oram.write oram ~block:b (stamp (b * 11))
  done;
  for b = 0 to 63 do
    checki "block content" (b * 11)
      (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:b))
  done

let test_random_sequence_consistency () =
  let _, oram = make ~n_blocks:32 () in
  let rng = Metrics.Rng.create ~seed:5L in
  let shadow = Array.make 32 0 in
  for _ = 1 to 2_000 do
    let b = Metrics.Rng.int rng 32 in
    if Metrics.Rng.bool rng then begin
      let v = Metrics.Rng.int rng 1_000_000 in
      shadow.(b) <- v;
      Oram.Path_oram.write oram ~block:b (stamp v)
    end
    else
      checki "shadow agreement" shadow.(b)
        (Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:b))
  done

let test_stash_bounded () =
  let _, oram = make ~n_blocks:128 () in
  let rng = Metrics.Rng.create ~seed:6L in
  for _ = 1 to 4_000 do
    Oram.Path_oram.access oram ~block:(Metrics.Rng.int rng 128) (fun _ -> ())
  done;
  (* PathORAM stashes stay small with overwhelming probability. *)
  checkb "stash small" true (Oram.Path_oram.stash_size oram < 64)

let test_access_charges_cost () =
  let clock, oram = make () in
  Metrics.Clock.reset clock;
  Oram.Path_oram.access oram ~block:0 (fun _ -> ());
  checki "charged advertised cost" (Oram.Path_oram.access_cost oram)
    (Metrics.Clock.now clock)

let test_oblivious_scan_costs_more () =
  let clock_d, oram_d = make ~n_blocks:256 ~metadata:`Direct () in
  let clock_s, oram_s = make ~n_blocks:256 ~metadata:`Oblivious_scan () in
  Metrics.Clock.reset clock_d;
  Metrics.Clock.reset clock_s;
  Oram.Path_oram.access oram_d ~block:1 (fun _ -> ());
  Oram.Path_oram.access oram_s ~block:1 (fun _ -> ());
  checkb "scan metadata strictly slower" true
    (Metrics.Clock.now clock_s > 2 * Metrics.Clock.now clock_d)

let test_remap_per_access () =
  (* Accessing the same block repeatedly must visit fresh random leaves:
     the core obliviousness mechanism. *)
  let _, oram = make ~n_blocks:256 () in
  Oram.Path_oram.set_tracing oram true;
  for _ = 1 to 64 do
    Oram.Path_oram.access oram ~block:9 (fun _ -> ())
  done;
  let leaves = Oram.Path_oram.trace oram in
  let distinct = List.sort_uniq compare leaves in
  checkb "leaves vary across repeated accesses" true (List.length distinct > 16)

let test_trace_independent_of_pattern () =
  (* Chi-squared-lite: leaf histograms for two very different access
     patterns should both look uniform. *)
  let run pattern =
    let _, oram = make ~n_blocks:64 () in
    Oram.Path_oram.set_tracing oram true;
    List.iter (fun b -> Oram.Path_oram.access oram ~block:b (fun _ -> ())) pattern;
    let counts = Array.make (Oram.Path_oram.leaves oram) 0 in
    List.iter (fun l -> counts.(l) <- counts.(l) + 1) (Oram.Path_oram.trace oram);
    counts
  in
  let n = 4_096 in
  let same_block = List.init n (fun _ -> 5) in
  let rng = Metrics.Rng.create ~seed:123L in
  let random_blocks = List.init n (fun _ -> Metrics.Rng.int rng 64) in
  let max_share counts =
    float_of_int (Array.fold_left max 0 counts) /. float_of_int n
  in
  (* With 64 leaves and uniform remapping, no leaf should capture much
     more than 1/64 ~ 1.6% of accesses for either pattern. *)
  checkb "same-block pattern looks uniform" true (max_share (run same_block) < 0.05);
  checkb "random pattern looks uniform" true (max_share (run random_blocks) < 0.05)

let test_bounds_check () =
  let _, oram = make ~n_blocks:8 () in
  checkb "out of range rejected" true
    (try Oram.Path_oram.access oram ~block:8 (fun _ -> ()); false
     with Invalid_argument _ -> true)

let create_with ~n_blocks ~z () =
  let clock = Metrics.Clock.create Metrics.Cost_model.default in
  Oram.Path_oram.create ~clock ~rng:(Metrics.Rng.create ~seed:1L) ~z ~n_blocks ()

let test_create_rejects_empty () =
  Helpers.check_invalid_arg ~naming:"n_blocks" (create_with ~n_blocks:0 ~z:4)

let test_create_rejects_zero_z () =
  Helpers.check_invalid_arg ~naming:"z" (create_with ~n_blocks:8 ~z:0)

(* --- Pinned placement ------------------------------------------------ *)

(* Fixed-seed mixed read/write programs over small, odd-sized and
   benchmark-sized trees, with one and four slots per bucket and both
   metadata regimes.  Per access the digest folds in the leaf read, the
   cycles charged, the stash size after write-back and the value read
   back, which pins every Rng draw, every charge, and how many blocks
   each eviction placed at each depth (a top-down eviction moves it).
   Which of several eligible blocks a bucket took is not observable
   through the interface: by the Path ORAM stash lemma the stash size
   does not depend on it.  The constant was computed before the int-id
   host layout and must not move with it. *)
let placement_digest () =
  let h = ref Trace.Fnv.empty in
  let feed v = h := Trace.Fnv.feed_string !h (string_of_int v ^ ";") in
  List.iter
    (fun (n_blocks, z, metadata) ->
      let clock = Metrics.Clock.create Metrics.Cost_model.default in
      let rng = Metrics.Rng.create ~seed:(Int64.of_int ((n_blocks * 8) + z)) in
      let oram = Oram.Path_oram.create ~clock ~rng ~z ~metadata ~n_blocks () in
      Oram.Path_oram.set_tracing oram true;
      let prog = Metrics.Rng.create ~seed:91L in
      (* Half the accesses revisit a small hot set, so blocks come back
         through the stash while the rest of the tree fills. *)
      let hot = min n_blocks 24 in
      for _ = 1 to (2 * n_blocks) + 300 do
        let block =
          if Metrics.Rng.bool prog then Metrics.Rng.int prog hot
          else Metrics.Rng.int prog n_blocks
        in
        let value = if Metrics.Rng.bool prog then Metrics.Rng.int prog 1_000_000 else -1 in
        let seen = ref 0 in
        let before = Metrics.Clock.now clock in
        Oram.Path_oram.access oram ~block (fun d ->
            seen := Sgx.Page_data.read_int d;
            if value >= 0 then Sgx.Page_data.fill_int d value);
        (match Oram.Path_oram.trace oram with
        | leaf :: _ -> feed leaf
        | [] -> Alcotest.fail "access left no leaf");
        feed (Metrics.Clock.now clock - before);
        feed (Oram.Path_oram.stash_size oram);
        feed !seen
      done)
    (List.concat_map
       (fun n_blocks ->
         List.concat_map
           (fun z -> [ (n_blocks, z, `Direct); (n_blocks, z, `Oblivious_scan) ])
           [ 1; 4 ])
       [ 16; 65; 4_096 ]);
  Trace.Fnv.to_hex !h

let pinned_placement_digest = "fnv64:f5879202a5999155"

let test_pinned_placement () =
  Alcotest.(check string) "pinned placement digest" pinned_placement_digest
    (placement_digest ())

(* Once every block has been materialised, an access moves ids and
   charges cycles: nothing on the host heap. *)
let test_access_allocates_nothing () =
  if Helpers.native then begin
    let _, oram = make ~n_blocks:64 () in
    let f d = ignore (Sys.opaque_identity d) in
    for block = 0 to 63 do Oram.Path_oram.access oram ~block f done;
    let rng = Metrics.Rng.create ~seed:8L in
    let words =
      Helpers.words_allocated (fun () ->
          for _ = 1 to 500 do
            Oram.Path_oram.access oram ~block:(Metrics.Rng.int rng 64) f
          done)
    in
    Alcotest.(check (float 0.)) "words per 500 accesses" 0. words
  end

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"oram read-your-writes (random programs)" ~count:30
        QCheck2.Gen.(list_size (int_range 1 200) (pair (int_range 0 15) (int_range 0 10_000)))
        (fun ops ->
          let _, oram = make ~n_blocks:16 () in
          let shadow = Array.make 16 0 in
          List.for_all
            (fun (b, v) ->
              if v mod 3 = 0 then begin
                shadow.(b) <- v;
                Oram.Path_oram.write oram ~block:b (stamp v);
                true
              end
              else
                Sgx.Page_data.read_int (Oram.Path_oram.read oram ~block:b)
                = shadow.(b))
            ops);
      QCheck2.Test.make ~name:"oram stash bounded under random load" ~count:10
        QCheck2.Gen.(int_range 1 1_000)
        (fun seed ->
          let clock = Metrics.Clock.create Metrics.Cost_model.default in
          let rng = Metrics.Rng.create ~seed:(Int64.of_int seed) in
          let oram = Oram.Path_oram.create ~clock ~rng ~n_blocks:64 () in
          for _ = 1 to 1_000 do
            Oram.Path_oram.access oram ~block:(Metrics.Rng.int rng 64) (fun _ -> ())
          done;
          Oram.Path_oram.stash_size oram < 64);
    ]

let suite =
  [
    ("geometry", `Quick, test_geometry);
    ("write/read", `Quick, test_write_read);
    ("fresh block zero", `Quick, test_fresh_block_zero);
    ("all blocks roundtrip", `Quick, test_many_blocks_roundtrip);
    ("random sequence consistency", `Quick, test_random_sequence_consistency);
    ("stash bounded", `Quick, test_stash_bounded);
    ("access charges advertised cost", `Quick, test_access_charges_cost);
    ("oblivious metadata costs more", `Quick, test_oblivious_scan_costs_more);
    ("remap per access", `Quick, test_remap_per_access);
    ("trace independent of pattern", `Quick, test_trace_independent_of_pattern);
    ("bounds check", `Quick, test_bounds_check);
    ("create rejects n_blocks 0", `Quick, test_create_rejects_empty);
    ("create rejects z 0", `Quick, test_create_rejects_zero_z);
    ("pinned placement digest", `Quick, test_pinned_placement);
    ("access allocates nothing", `Quick, test_access_allocates_nothing);
  ]
  @ qcheck_cases
