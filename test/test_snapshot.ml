(* The snapshot subsystem: explicit codecs for the flat hot-path
   structures (QCheck round-trips against the boxed oracles, tombstone
   and rehash states included), the sealed image container (tamper,
   forgery, rollback), and whole-world capture/resume equivalence for
   the longrun, inject and serve drivers.

   The determinism contract under test everywhere: run to N, capture,
   restore, continue == straight-through run — same trace digest, same
   counters, same cycles, bit for bit. *)

open Sgx
module Codec = Snapshot.Codec
module Image = Snapshot.Image
module World = Snapshot.World
module Longrun = Snapshot.Longrun

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)
let checki = Alcotest.(check int)

let temp_path suffix =
  let f = Filename.temp_file "autarky_snap" suffix in
  f

let perms_of_bits b =
  Types.{ r = b land 1 <> 0; w = b land 2 <> 0; x = b land 4 <> 0 }

let kind_of i =
  match i mod 3 with 0 -> Types.Read | 1 -> Types.Write | _ -> Types.Exec

(* --- codec round-trips ------------------------------------------------- *)

(* Encode -> decode and demand *structural* identity of the raw state:
   slot positions, tombstones, generation counters, ring contents.
   Observational equivalence is not enough — a restored table with the
   live entries re-inserted would answer every query correctly yet
   diverge from the straight-through run at the next rehash/eviction,
   which the golden trace digests would catch much later and much less
   legibly. *)

let flat_roundtrip t =
  let b = Buffer.create 256 in
  Codec.write_flat b t;
  Codec.read_flat (Codec.R.of_string (Buffer.contents b))

let flat_domain = 96

(* ops1 builds arbitrary state (removals leave empty slots inside the
   window; enough inserts force it to grow); the round-tripped copy
   then runs ops2 in lockstep with a Hashtbl oracle. *)
let flat_property (ops1, ops2) =
  let flat = Flat.create () in
  let oracle = Hashtbl.create 16 in
  let apply t (op, k, v) =
    match op mod 3 with
    | 0 | 1 ->
      Flat.set t k v;
      Hashtbl.replace oracle k v
    | _ ->
      Flat.remove t k;
      Hashtbl.remove oracle k
  in
  List.iter (apply flat) ops1;
  let copy = flat_roundtrip flat in
  Flat.export_state copy = Flat.export_state flat
  && List.for_all
       (fun op ->
         apply copy op;
         Flat.length copy = Hashtbl.length oracle
         &&
         let ok = ref true in
         for k = 0 to flat_domain - 1 do
           let expect =
             match Hashtbl.find_opt oracle k with
             | Some v -> v
             | None -> Flat.absent
           in
           ok := !ok && Flat.find copy k = expect
         done;
         !ok)
       ops2

let tlb_roundtrip t =
  let b = Buffer.create 256 in
  Codec.write_tlb b t;
  Codec.read_tlb (Codec.R.of_string (Buffer.contents b))

(* Small capacity so ops1 reliably reaches evictions and stale ring
   entries; after the round-trip, the copy and a Tlb_ref oracle (driven
   with the full sequence) must agree on every hit decision. *)
let tlb_property (ops1, ops2) =
  let tlb = Tlb.create ~capacity:8 () in
  let oracle = Tlb_ref.create ~capacity:8 () in
  let apply t (op, vp, arg) =
    match op mod 5 with
    | 0 | 1 ->
      let dirty = arg land 8 <> 0 in
      Tlb.fill ~dirty t vp (perms_of_bits arg);
      Tlb_ref.fill ~dirty oracle vp (perms_of_bits arg)
    | 2 -> checkb "hit agrees" (Tlb_ref.hit oracle vp (kind_of arg))
             (Tlb.hit t vp (kind_of arg))
    | 3 ->
      Tlb.flush_page t vp;
      Tlb_ref.flush_page oracle vp
    | _ ->
      Tlb.flush t;
      Tlb_ref.flush oracle
  in
  List.iter (apply tlb) ops1;
  let copy = tlb_roundtrip tlb in
  Tlb.export_state copy = Tlb.export_state tlb
  && List.for_all
       (fun op ->
         apply copy op;
         Tlb.size copy = Tlb_ref.size oracle)
       ops2

let pt_roundtrip t =
  let b = Buffer.create 256 in
  Codec.write_flat b t;
  Codec.read_flat (Codec.R.of_string (Buffer.contents b))

let pt_domain = 64

let pt_property (ops1, ops2) =
  let pt = Page_table.create () in
  let oracle = Page_table_ref.create () in
  let apply t (op, vp, arg) =
    match op mod 4 with
    | 0 | 1 ->
      let frame = arg land 0xFFFF and perms = perms_of_bits arg in
      let accessed = arg land 8 <> 0 and dirty = arg land 16 <> 0 in
      Page_table.map t ~vpage:vp ~frame ~perms ~accessed ~dirty ();
      Page_table_ref.map oracle ~vpage:vp ~frame ~perms ~accessed ~dirty ()
    | 2 ->
      Page_table.unmap t vp;
      Page_table_ref.unmap oracle vp
    | _ ->
      Page_table.set_ad t vp ~write:(arg land 1 = 1);
      Page_table_ref.set_ad oracle vp ~write:(arg land 1 = 1)
  in
  List.iter (apply pt) ops1;
  let copy = pt_roundtrip pt in
  Flat.export_state copy = Flat.export_state pt
  && List.for_all
       (fun op ->
         apply copy op;
         let ok = ref true in
         for vp = 0 to pt_domain - 1 do
           ok :=
             !ok
             && Page_table.find_packed copy vp
                = Page_table_ref.find_packed oracle vp
         done;
         !ok && Page_table.mapped_pages copy = Page_table_ref.mapped_pages oracle)
       ops2

let test_codec_tag_mismatch () =
  let b = Buffer.create 64 in
  Codec.write_flat b (Flat.create ());
  checkb "tlb reader rejects a flat encoding" true
    (try
       ignore (Codec.read_tlb (Codec.R.of_string (Buffer.contents b)));
       false
     with Invalid_argument _ -> true);
  checkb "short input raises Short" true
    (try
       ignore (Codec.R.u32 (Codec.R.of_string "ab"));
       false
     with Codec.Short -> true)

(* --- the sealed image container ----------------------------------------- *)

let seal_one ?(label = "test/label") ?(kind = "test") ?(cycle = 7L)
    ?(payload = Bytes.init 700 (fun i -> Char.chr (i mod 251))) store =
  let path = temp_path ".snap" in
  let counter = Image.save ~store ~kind ~label ~cycle payload ~path in
  (path, counter, payload)

let err_name = function
  | Image.Truncated -> "truncated"
  | Image.Bad_magic -> "bad-magic"
  | Image.Bad_format _ -> "bad-format"
  | Image.Tampered _ -> "tampered"
  | Image.Header_forged -> "header-forged"
  | Image.Stale _ -> "stale"
  | Image.Wrong_kind _ -> "wrong-kind"
  | Image.Incompatible_binary _ -> "incompatible-binary"
  | Image.Probe_mismatch _ -> "probe-mismatch"
  | Image.Unmarshal_failed _ -> "unmarshal-failed"
  | Image.Io_error _ -> "io-error"

let expect_err name = function
  | Ok _ -> Alcotest.failf "expected %s, got Ok" name
  | Error e -> checks "typed error" name (err_name e)

let test_image_roundtrip () =
  let store = Image.Store.in_memory () in
  let path, counter, payload = seal_one store in
  checkb "counter starts at 1" true (counter = 1L);
  match Image.load ~store ~expect_kind:"test" ~path () with
  | Error e -> Alcotest.failf "load failed: %s" (Image.error_to_string e)
  | Ok (h, got) ->
    checks "label" "test/label" h.Image.h_label;
    checkb "cycle" true (h.Image.h_cycle = 7L);
    checkb "payload survives" true (Bytes.equal payload got);
    Sys.remove path

let test_image_truncated () =
  let store = Image.Store.in_memory () in
  let path, _, _ = seal_one store in
  let raw = In_channel.with_open_bin path In_channel.input_all in
  let out = temp_path ".snap" in
  List.iter
    (fun keep ->
      Out_channel.with_open_bin out (fun oc ->
          Out_channel.output_string oc (String.sub raw 0 keep));
      expect_err "truncated" (Image.load ~store ~path:out ()))
    [ 13; 40; String.length raw / 2; String.length raw - 1 ];
  Sys.remove path;
  Sys.remove out

let test_image_bit_flip () =
  let store = Image.Store.in_memory () in
  let path, _, _ = seal_one store in
  let raw =
    Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  let out = temp_path ".snap" in
  (* Flip one bit in the middle of the sealed region (well past the
     plaintext header): the chunk MAC must catch it. *)
  let off = Bytes.length raw - 32 in
  Bytes.set raw off (Char.chr (Char.code (Bytes.get raw off) lxor 0x10));
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_bytes oc raw);
  expect_err "tampered" (Image.load ~store ~path:out ());
  Sys.remove path;
  Sys.remove out

let test_image_header_edits () =
  let store = Image.Store.in_memory () in
  let path, _, _ = seal_one store ~label:"forge/victim" in
  let raw =
    Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
  in
  (* The plaintext header begins after magic + u32 hlen; its first field
     is the kind string, then the label.  Flip a label byte: the outer
     header now disagrees with the MAC-protected sealed copy. *)
  let label_off =
    let probe = "forge/victim" in
    let raw_s = Bytes.to_string raw in
    let rec find i =
      if String.sub raw_s i (String.length probe) = probe then i
      else find (i + 1)
    in
    find 0
  in
  let forged = Bytes.copy raw in
  Bytes.set forged label_off 'F';
  let out = temp_path ".snap" in
  Out_channel.with_open_bin out (fun oc -> Out_channel.output_bytes oc forged);
  expect_err "header-forged" (Image.load ~store ~path:out ());
  (* Editing the counter field instead changes the key schedule of every
     chunk, so it dies earlier, at the MAC. *)
  let h =
    match Image.read_header ~path with Ok h -> h | Error _ -> assert false
  in
  ignore h;
  Sys.remove path;
  Sys.remove out

let test_image_rollback () =
  let store = Image.Store.in_memory () in
  let p1, c1, _ = seal_one store ~label:"roll/back" in
  let p2, c2, _ = seal_one store ~label:"roll/back" in
  checkb "counter monotonic" true (c2 = Int64.add c1 1L);
  (* The older image is intact — every MAC verifies — but the counter
     store has moved past it. *)
  expect_err "stale" (Image.load ~store ~path:p1 ());
  (match Image.load ~store ~path:p2 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fresh image rejected: %s" (Image.error_to_string e));
  (* Without a store there is no freshness reference: the old image
     loads (the CLI always passes a store; the API documents this). *)
  checkb "no store, no freshness" true
    (match Image.load ~path:p1 () with Ok _ -> true | Error _ -> false);
  Sys.remove p1;
  Sys.remove p2

let test_image_wrong_kind () =
  let store = Image.Store.in_memory () in
  let path, _, _ = seal_one store ~kind:"longrun" in
  expect_err "wrong-kind" (Image.load ~store ~expect_kind:"serve" ~path ());
  Sys.remove path

let test_image_not_a_snapshot () =
  let out = temp_path ".snap" in
  Out_channel.with_open_bin out (fun oc ->
      Out_channel.output_string oc "definitely not a sealed image, sorry");
  expect_err "bad-magic" (Image.load ~path:out ());
  expect_err "io-error" (Image.load ~path:(out ^ ".does-not-exist") ());
  Sys.remove out

let test_store_persistence () =
  let file = temp_path ".tsv" in
  Sys.remove file;
  let s1 = Image.Store.file file in
  ignore (Image.Store.next s1 "a/b");
  ignore (Image.Store.next s1 "a/b");
  ignore (Image.Store.next s1 "c d");
  (* A fresh handle re-reads the persisted counters. *)
  let s2 = Image.Store.file file in
  checkb "a/b at 2" true (Image.Store.latest s2 "a/b" = 2L);
  checkb "c d at 1" true (Image.Store.latest s2 "c d" = 1L);
  checkb "unseen at 0" true (Image.Store.latest s2 "nope" = 0L);
  checkb "bump continues" true (Image.Store.next s2 "a/b" = 3L);
  Sys.remove file

(* --- whole-world resume equivalence ------------------------------------- *)

let longrun_spec ops =
  {
    Longrun.sp_workload = Harness.Builder.Ycsb;
    sp_policy = Harness.Builder.Rate_limit;
    sp_mech = `Sgx1;
    sp_seed = 11;
    sp_ops = ops;
  }

(* Straight-through vs capture-at-N + sealed restore + continue: the
   full Marshal + seal + probe path, in one process. *)
let test_longrun_resume_equivalence () =
  let ops = 8 in
  let straight =
    match Longrun.advance (Longrun.build (longrun_spec ops)) with
    | Ok o -> Longrun.outcome_line o
    | Error _ -> assert false
  in
  let dir = Filename.temp_file "autarky_snapdir" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let store = Image.Store.in_memory () in
  let path =
    match
      Longrun.advance ~stop_at:3 ~store ~dir (Longrun.build (longrun_spec ops))
    with
    | Error path -> path
    | Ok _ -> Alcotest.fail "expected a pause"
  in
  let resumed =
    match Longrun.resume ~store ~path () with
    | Error e -> Alcotest.failf "resume failed: %s" (Image.error_to_string e)
    | Ok w -> (
      match Longrun.advance ~store ~dir w with
      | Ok o -> Longrun.outcome_line o
      | Error _ -> assert false)
  in
  checks "straight == sliced" straight resumed;
  Sys.remove path;
  Sys.rmdir dir

let test_longrun_probe_mismatch () =
  (* Seal one world but record the probe of a *different* machine: the
     restore-time probe recomputation must refuse the image. *)
  let w1 = Longrun.build (longrun_spec 6) in
  let w2 = Longrun.build { (longrun_spec 6) with Longrun.sp_seed = 12 } in
  ignore (Longrun.step w1);
  let store = Image.Store.in_memory () in
  let path = temp_path ".snap" in
  ignore
    (World.save ~store ~kind:"longrun" ~label:"probe/test"
       ~machine:(Longrun.machine w2) w1 ~path);
  (match
     World.load ~store ~kind:"longrun" ~machine_of:Longrun.machine ~path ()
   with
  | Error (Image.Probe_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Image.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Probe_mismatch");
  Sys.remove path

let test_inject_resume_equivalence () =
  let policy = Inject.Campaign.Rate_limit in
  let scenario = Some Inject.Fault.Bit_flip in
  let straight =
    Inject.Campaign.exec_run ~policy ~seed:1 ~ops:40 ~scenario
      ~cycle_cap:max_int
  in
  let c =
    Inject.Campaign.cell_build ~policy ~seed:1 ~ops:40 ~scenario
      ~cycle_cap:max_int
  in
  for _ = 1 to 10 do
    ignore (Inject.Campaign.cell_step c)
  done;
  (* Capture/restore through the payload layer alone (the sealed
     container is covered above): the restored cell must finish the
     remaining 30 operations onto an identical execution record. *)
  let c' : Inject.Campaign.cell =
    match World.of_payload (World.to_payload c) with
    | Ok c' -> c'
    | Error e -> Alcotest.failf "restore failed: %s" (Image.error_to_string e)
  in
  let resumed = Inject.Campaign.cell_drive c' in
  checks "digest" straight.Inject.Campaign.e_digest
    resumed.Inject.Campaign.e_digest;
  checkb "output" true
    (straight.Inject.Campaign.e_output = resumed.Inject.Campaign.e_output);
  checki "cycles" straight.Inject.Campaign.e_cycles
    resumed.Inject.Campaign.e_cycles;
  checki "injected" straight.Inject.Campaign.e_injected
    resumed.Inject.Campaign.e_injected;
  checkb "raw" true
    (straight.Inject.Campaign.e_raw = resumed.Inject.Campaign.e_raw)

let serve_scenario () = Serve.Driver.default_scenario ~quick:true

let serve_params seed =
  let p = Serve.Engine.default_params ~seed in
  { p with Serve.Engine.p_trace = true }

let serve_fingerprint (r : Serve.Engine.result) =
  Printf.sprintf "%d %s %s" r.Serve.Engine.r_end_cycle
    (Option.value r.Serve.Engine.r_digest ~default:"-")
    (World.counters_fingerprint (Sgx.Machine.counters r.Serve.Engine.r_machine))

let test_serve_resume_equivalence () =
  let straight =
    let st = Serve.Engine.start ~params:(serve_params 5) (serve_scenario ()) in
    while Serve.Engine.step st do () done;
    serve_fingerprint (Serve.Engine.finish st)
  in
  let st = Serve.Engine.start ~params:(serve_params 5) (serve_scenario ()) in
  for _ = 1 to 40 do
    ignore (Serve.Engine.step st)
  done;
  let st' : Serve.Engine.state =
    match World.of_payload (World.to_payload st) with
    | Ok st' -> st'
    | Error e -> Alcotest.failf "restore failed: %s" (Image.error_to_string e)
  in
  while Serve.Engine.step st' do () done;
  checks "straight == sliced" straight
    (serve_fingerprint (Serve.Engine.finish st'))

(* --- registration ------------------------------------------------------- *)

let two_op_lists ~ops ~arg_hi =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 150)
         (triple (int_range 0 (ops - 1)) (int_range 0 (flat_domain - 1))
            (int_range 0 arg_hi)))
      (list_size (int_range 1 60)
         (triple (int_range 0 (ops - 1)) (int_range 0 (flat_domain - 1))
            (int_range 0 arg_hi))))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make
        ~name:"flat codec round-trip preserves raw state and behaviour"
        ~count:200
        (two_op_lists ~ops:3 ~arg_hi:0xFFFF)
        flat_property;
      QCheck2.Test.make
        ~name:"tlb codec round-trip preserves raw state and behaviour"
        ~count:200
        (two_op_lists ~ops:5 ~arg_hi:15)
        tlb_property;
      QCheck2.Test.make
        ~name:"page-table codec round-trip preserves raw state and behaviour"
        ~count:200
        (two_op_lists ~ops:4 ~arg_hi:0xFFFF)
        pt_property;
    ]

let suite =
  [
    ("codec tag/short-input errors", `Quick, test_codec_tag_mismatch);
    ("image seals and loads back", `Quick, test_image_roundtrip);
    ("truncated image detected", `Quick, test_image_truncated);
    ("bit flip fails the MAC", `Quick, test_image_bit_flip);
    ("plaintext header edit detected", `Quick, test_image_header_edits);
    ("rollback rejected by the counter store", `Quick, test_image_rollback);
    ("wrong kind rejected", `Quick, test_image_wrong_kind);
    ("non-image inputs rejected", `Quick, test_image_not_a_snapshot);
    ("counter store persists across handles", `Quick, test_store_persistence);
    ("longrun: straight == capture/seal/resume", `Quick,
     test_longrun_resume_equivalence);
    ("probe mismatch refuses the image", `Quick, test_longrun_probe_mismatch);
    ("inject cell: straight == capture/resume", `Quick,
     test_inject_resume_equivalence);
    ("serve fleet: straight == capture/resume", `Quick,
     test_serve_resume_equivalence);
  ]
  @ qcheck_cases
