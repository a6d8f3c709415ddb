(* Whole-world capture/restore.

   The serialization engine is [Marshal] with [Closures]: a simulated
   platform is one big object graph — machine, OS, runtime, policies,
   workload closures, digest sinks — full of sharing (one clock
   referenced everywhere) and cycles (runtime <-> policy), and Marshal
   is the only engine that preserves both without a hand-written
   walker per module.  Closure marshaling pins the image to the
   producing executable (code-fragment digests), which {!Image} turns
   into a typed [Incompatible_binary] error via the binary digest in
   the header rather than a Failure mid-restore.

   Two rules make a world marshal-safe, and every snapshot-capable
   driver in the tree follows them:

   - capture only at quiescent points (between operations/events): the
     OCaml runtime cannot capture a continuation, so nothing may be
     mid-enclave-entry or mid-measurement-span;
   - no OS resources in the graph: channels, sockets and mutexes must
     be attached *after* restore (e.g. {!Inject.Campaign.cell_add_sink}
     for a replay JSONL dump), never reachable before capture.

   The trace digest deserves a note: {!Trace.Sink.digest}'s closure
   carries its FNV accumulator (a plain [int64 ref]), so the digest
   state itself rides the image, and the digest printed after a
   restored run equals the straight-through one — that is what turns
   "resume equivalence" into a one-line string comparison. *)

type error = Image.error

let to_payload w = Marshal.to_bytes w [ Marshal.Closures ]

let of_payload (b : bytes) =
  match Marshal.from_bytes b 0 with
  | w -> Ok w
  | exception Failure msg -> Error (Image.Unmarshal_failed msg)
  | exception e -> Error (Image.Unmarshal_failed (Printexc.to_string e))

(* --- the machine probe ------------------------------------------------- *)

let mode_code = function
  | Sgx.Machine.Full_exits -> 0
  | Sgx.Machine.No_upcall -> 1
  | Sgx.Machine.No_upcall_no_aex -> 2

(* Digest of the machine's hot state through the *explicit* codecs (not
   Marshal): clock, counters, EPCM + page contents, raw TLB, raw VA
   map, branch ring.  Recorded at capture, recomputed after restore —
   a cross-check that the Marshal round-trip reproduced the physical
   structures bit-for-bit, by a path that shares no code with it. *)
let probe (m : Sgx.Machine.t) =
  let b = Buffer.create 65_536 in
  Codec.W.int_ b (Metrics.Clock.now m.Sgx.Machine.clock);
  Codec.W.u8 b (mode_code m.Sgx.Machine.mode);
  List.iter
    (fun (name, v) ->
      Codec.W.str b name;
      Codec.W.int_ b v)
    (Metrics.Counters.snapshot (Sgx.Machine.counters m));
  let epc = m.Sgx.Machine.epc in
  let frames = Sgx.Epc.total_frames epc in
  Codec.W.u32 b frames;
  Codec.W.u32 b (Sgx.Epc.free_frames epc);
  for f = 0 to frames - 1 do
    let e = Sgx.Epc.entry epc f in
    Codec.W.u32 b (Sgx.Epc.flags e);
    Codec.W.int_ b (Sgx.Epc.enclave_id e);
    Codec.W.int_ b (Sgx.Epc.vpage e);
    Buffer.add_bytes b (Sgx.Page_data.to_bytes (Sgx.Epc.data epc f))
  done;
  Codec.write_tlb b m.Sgx.Machine.tlb;
  Codec.write_flat b m.Sgx.Machine.va_slots;
  Codec.W.int_ b m.Sgx.Machine.va_next_slot;
  Codec.W.i64 b (Int64.of_int m.Sgx.Machine.va_counter);
  Codec.W.u32 b (Sgx.Machine.free_va_slots m);
  Sgx.Machine.iter_free_va_slots (fun s -> Codec.W.int_ b s) m;
  Codec.W.int_ b m.Sgx.Machine.branch_cursor;
  Array.iter
    (fun (eid, vp) ->
      Codec.W.int_ b eid;
      Codec.W.int_ b vp)
    m.Sgx.Machine.branch_ring;
  Trace.Fnv.feed_string Trace.Fnv.empty (Buffer.contents b)

(* --- sealed save/load -------------------------------------------------- *)

let save ~store ~kind ~label ?machine w ~path =
  let probe_v, cycle =
    match machine with
    | None -> (0L, 0L)
    | Some m ->
      (probe m, Int64.of_int (Metrics.Clock.now m.Sgx.Machine.clock))
  in
  Image.save ~store ~kind ~label ~cycle ~probe:probe_v (to_payload w) ~path

let ( let* ) = Result.bind

let load ?store ~kind ?machine_of ~path () =
  let* h, payload = Image.load ?store ~expect_kind:kind ~path () in
  let* w = of_payload payload in
  let* () =
    match machine_of with
    | Some f when h.Image.h_probe <> 0L ->
      let got = probe (f w) in
      if got <> h.Image.h_probe then
        Error (Image.Probe_mismatch { expected = h.Image.h_probe; got })
      else Ok ()
    | _ -> Ok ()
  in
  Ok (h, w)

let counters_fingerprint counters =
  let h =
    List.fold_left
      (fun h (name, v) ->
        Trace.Fnv.feed_string h (Printf.sprintf "%s=%d;" name v))
      Trace.Fnv.empty
      (Metrics.Counters.snapshot counters)
  in
  Trace.Fnv.to_hex h
