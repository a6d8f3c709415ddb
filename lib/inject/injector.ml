type vpage = Sgx.Types.vpage

type attached = {
  at_os : Sim_os.Kernel.t;
  at_proc : Sim_os.Kernel.proc;
  at_machine : Sgx.Machine.t;
  at_enclave : Sgx.Enclave.t;
  at_targets : vpage array;
}

type t = {
  rng : Metrics.Rng.t;
  inj_scenario : Fault.scenario;
  rate : float;
  mutable st : attached option;
  mutable injected : int;
  mutable pending_burst : int;
  mutable stash : (vpage * Sim_crypto.Sealer.sealed * int) option;
      (* a stored page's row and PCMD *)
  mutable shrink_storm : (int * int) option;  (* original limit, ticks left *)
}

let create ~seed ~scenario ?(rate = 0.08) () =
  assert (rate >= 0.0 && rate <= 1.0);
  {
    rng = Metrics.Rng.create ~seed;
    inj_scenario = scenario;
    rate;
    st = None;
    injected = 0;
    pending_burst = 0;
    stash = None;
    shrink_storm = None;
  }

let scenario t = t.inj_scenario
let injected t = t.injected

let attach t ~sys ~targets =
  t.st <-
    Some
      {
        at_os = Harness.System.os sys;
        at_proc = Harness.System.proc sys;
        at_machine = Harness.System.machine sys;
        at_enclave = Harness.System.enclave sys;
        at_targets = Array.of_list targets;
      }

(* Every injection announces itself in the trace (actor [Attacker])
   *before* acting, so even an action that immediately terminates the
   enclave is visible, and the digest of an injected run pins the full
   injection schedule. *)
let emit t detail vpages =
  match t.st with
  | None -> ()
  | Some st -> (
    match Sgx.Machine.tracer st.at_machine with
    | None -> ()
    | Some tr ->
      Trace.Recorder.emit tr ~enclave:st.at_enclave.Sgx.Enclave.id
        ~actor:Trace.Event.Attacker
        (Trace.Event.Inject
           { scenario = Fault.name t.inj_scenario; detail; vpages }))

(* --- interposition on the kernel/runtime boundary --------------------- *)

let refuse t what =
  t.pending_burst <- t.pending_burst - 1;
  emit t (Printf.sprintf "refuse-%s" what) []

let wrap_os t (os : Autarky.Os_iface.t) : Autarky.Os_iface.t =
  {
    os with
    fetch_pages =
      (fun pages ->
        if t.pending_burst > 0 then begin
          refuse t "fetch_pages";
          Error `Epc_exhausted
        end
        else os.fetch_pages pages);
    aug_pages =
      (fun pages ->
        if t.pending_burst > 0 then begin
          refuse t "aug_pages";
          Error `Epc_exhausted
        end
        else os.aug_pages pages);
    (* The single-page fast paths refuse under the same bursts, emitting
       the syscall-family detail string — injected trace digests must
       not depend on whether the runtime took the batch or the
       single-page entry. *)
    fetch_page =
      (fun vp ->
        if t.pending_burst > 0 then begin
          refuse t "fetch_pages";
          Error `Epc_exhausted
        end
        else os.fetch_page vp);
    aug_page =
      (fun vp ->
        if t.pending_burst > 0 then begin
          refuse t "aug_pages";
          Error `Epc_exhausted
        end
        else os.aug_page vp);
    page_in_os_managed =
      (fun vp ->
        if t.pending_burst > 0 then begin
          refuse t "page_in_os_managed";
          Error `Epc_exhausted
        end
        else os.page_in_os_managed vp);
  }

(* --- firing one injection --------------------------------------------- *)

let swap_of st = Sim_os.Kernel.swap st.at_os st.at_proc

(* Targets whose sealed blob currently sits in the backing store (the
   only pages blob tampering can reach). *)
let pick_stored t st =
  let swap = swap_of st in
  let stored =
    Array.to_list st.at_targets
    |> List.filter (Sim_os.Swap_store.mem swap)
  in
  match stored with
  | [] -> None
  | vs -> Some (List.nth vs (Metrics.Rng.int t.rng (List.length vs)))

(* A copy of the row with one ciphertext bit flipped: the byte is drawn
   over the ciphertext, never the vaddr/version/MAC trailer. *)
let flip_sealed t row =
  let n = Sim_crypto.Sealer.ciphertext_length row in
  let b = Sim_crypto.Sealer.to_bytes row in
  if n = 0 then Bytes.set_int64_le b (n + 16) (Int64.lognot (Sim_crypto.Sealer.mac row))
  else begin
    let i = Metrics.Rng.int t.rng n in
    let bit = Metrics.Rng.int t.rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
  end;
  Sim_crypto.Sealer.of_bytes b

let fire_bit_flip t st =
  match pick_stored t st with
  | None -> ()
  | Some vp -> (
    let swap = swap_of st in
    match Sim_os.Swap_store.peek swap vp with
    | None -> ()
    | Some (row, pcmd) ->
      emit t "flip-ciphertext-bit" [ vp ];
      t.injected <- t.injected + 1;
      Sim_os.Swap_store.replace_raw swap vp (flip_sealed t row) ~pcmd)

(* Replay is two-phase: stash a valid blob now, and re-install it once
   the store holds a *newer* blob for the same page (i.e. the page was
   fetched and evicted again in between) — only then is the stashed copy
   actually stale. *)
let fire_replay t st =
  let swap = swap_of st in
  match t.stash with
  | None -> (
    match pick_stored t st with
    | None -> ()
    | Some vp -> (
      match Sim_os.Swap_store.peek swap vp with
      | None -> ()
      | Some (row, pcmd) ->
        t.stash <- Some (vp, row, pcmd);
        emit t "stash-blob" [ vp ]))
  | Some (vp, old, old_pcmd) -> (
    match Sim_os.Swap_store.peek swap vp with
    | Some (cur, cur_pcmd) when cur <> old || cur_pcmd <> old_pcmd ->
      emit t "replay-stale-blob" [ vp ];
      t.injected <- t.injected + 1;
      Sim_os.Swap_store.replace_raw swap vp old ~pcmd:old_pcmd;
      t.stash <- None
    | _ -> ())

let fire_drop t st =
  match pick_stored t st with
  | None -> ()
  | Some vp ->
    emit t "drop-blob" [ vp ];
    t.injected <- t.injected + 1;
    Sim_os.Swap_store.delete (swap_of st) vp

let fire_burst t =
  let len = 1 + Metrics.Rng.int t.rng 4 in
  t.pending_burst <- t.pending_burst + len;
  t.injected <- t.injected + 1;
  emit t (Printf.sprintf "arm-burst-%d" len) []

let fire_limit_shrink t st =
  match t.shrink_storm with
  | Some _ -> ()  (* one storm at a time *)
  | None ->
    let orig = Sim_os.Kernel.epc_limit st.at_proc in
    let shrunk = max 24 (orig / 2) in
    if shrunk < orig then begin
      t.injected <- t.injected + 1;
      emit t (Printf.sprintf "shrink-limit-%d-to-%d" orig shrunk) [];
      Sim_os.Kernel.set_epc_limit st.at_proc shrunk;
      Sim_os.Kernel.reclaim_for_shrink st.at_os st.at_proc ~target:shrunk;
      let excess = Sim_os.Kernel.resident_pages st.at_proc - shrunk in
      if excess > 0 then
        ignore (Sim_os.Kernel.request_balloon st.at_os st.at_proc ~pages:excess);
      t.shrink_storm <- Some (orig, 8 + Metrics.Rng.int t.rng 8)
    end

let fire_balloon t st =
  let pages = 8 + Metrics.Rng.int t.rng 17 in
  t.injected <- t.injected + 1;
  emit t (Printf.sprintf "balloon-%d" pages) [];
  ignore (Sim_os.Kernel.request_balloon st.at_os st.at_proc ~pages)

let fire_reentry t st =
  t.injected <- t.injected + 1;
  emit t "spurious-handler-entry" [];
  (* No pending exception in the SSA: the hardware forces the trusted
     handler, which must treat the entry as a re-entrancy attack. *)
  Sgx.Instructions.enter_handler_and_resume st.at_machine st.at_enclave

let tick t =
  match t.st with
  | None -> ()
  | Some st ->
    (match t.shrink_storm with
    | Some (orig, 0) ->
      t.shrink_storm <- None;
      emit t (Printf.sprintf "restore-limit-%d" orig) [];
      Sim_os.Kernel.set_epc_limit st.at_proc orig
    | Some (orig, k) -> t.shrink_storm <- Some (orig, k - 1)
    | None -> ());
    if Metrics.Rng.float t.rng < t.rate then
      match t.inj_scenario with
      | Fault.Bit_flip -> fire_bit_flip t st
      | Fault.Replay -> fire_replay t st
      | Fault.Drop_blob -> fire_drop t st
      | Fault.Epc_burst -> fire_burst t
      | Fault.Limit_shrink -> fire_limit_shrink t st
      | Fault.Balloon_storm -> fire_balloon t st
      | Fault.Reentry -> fire_reentry t st
