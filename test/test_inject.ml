(* Tests for the Byzantine-OS fault-injection subsystem: the hardened
   runtime/pager error paths (every OS-triggerable fault must resolve
   into a modeled termination, a bounded retry, or a graceful
   degradation — never a raw simulator exception), and the campaign's
   detect-or-recover verdicts. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Expect a modeled termination whose reason mentions [sub]. *)
let expect_terminated ~sub f =
  match f () with
  | _ -> Alcotest.failf "expected Enclave_terminated mentioning %S" sub
  | exception Sgx.Types.Enclave_terminated { reason; _ } ->
    checkb
      (Printf.sprintf "reason %S mentions %S" reason sub)
      true
      (contains ~sub reason)

(* A self-paging system with a demand-paged data region beyond the EPC
   allowance (so its pages start as sealed blobs in the backing store). *)
let system_with_data ?(mech = `Sgx1) () =
  let sys =
    Harness.System.create ~mech ~epc_frames:256 ~epc_limit:128
      ~enclave_pages:512 ~self_paging:true ~budget:96 ()
  in
  let _prefix = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:64 in
  Harness.System.manage sys (List.init 64 (fun i -> b + i));
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  (sys, b)

(* --- satellite 1: a policy that fails to fetch is a modeled
   termination, not an Sgx_error escaping the trusted handler ---------- *)

let test_policy_no_fetch_terminates () =
  let sys, b = system_with_data () in
  let rt = Harness.System.runtime_exn sys in
  Autarky.Runtime.set_policy rt
    {
      Autarky.Runtime.pol_name = "broken";
      pol_on_miss = (fun _ _ -> ());  (* "handles" the miss without fetching *)
      pol_balloon = (fun _ -> 0);
    };
  let cpu = Harness.System.cpu sys in
  expect_terminated ~sub:"did not fetch" (fun () ->
      Sgx.Cpu.read cpu (b * Sgx.Types.page_bytes));
  checkb "counted" true
    (Metrics.Counters.get (Harness.System.counters sys) "rt.policy_no_fetch" > 0)

(* --- satellite 2: the OS deleting a swap blob is a detected attack --- *)

let test_deleted_blob_detected_sgx1 () =
  let sys, b = system_with_data () in
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  checkb "data page starts swapped" true (Sim_os.Swap_store.mem swap b);
  Sim_os.Swap_store.delete swap b;
  let cpu = Harness.System.cpu sys in
  expect_terminated ~sub:"lost the blob" (fun () ->
      Sgx.Cpu.read cpu (b * Sgx.Types.page_bytes));
  checkb "attack counted" true
    (Metrics.Counters.get (Harness.System.counters sys) "rt.attack_detected" > 0)

let test_deleted_blob_detected_sgx2 () =
  (* SGXv2 path: the runtime sealed the page itself; blob_load returning
     nothing for a sealed-out page must terminate, not zero-fill. *)
  let sys, b = system_with_data ~mech:`Sgx2 () in
  let cpu = Harness.System.cpu sys in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  Sgx.Cpu.read cpu (b * Sgx.Types.page_bytes);  (* first touch: zero page *)
  Autarky.Pager.evict pager [ b ];  (* seal + store + remove *)
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  Sim_os.Swap_store.delete swap b;
  expect_terminated ~sub:"lost the runtime-sealed blob" (fun () ->
      Sgx.Cpu.read cpu (b * Sgx.Types.page_bytes))

(* --- satellite 3: the sealer's error path through the kernel --------- *)

(* A copy of [row] with bit [bit] of its bytes flipped. *)
let flip_bit row bit =
  let b = Sim_crypto.Sealer.to_bytes row in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Sim_crypto.Sealer.of_bytes b

let flip_blob swap vp =
  match Sim_os.Swap_store.peek swap vp with
  | Some (row, pcmd) when pcmd <> Sim_os.Swap_store.runtime_sealed ->
    Sim_os.Swap_store.replace_raw swap vp (flip_bit row 0) ~pcmd
  | _ -> Alcotest.fail "expected a V1 blob"

let test_bit_flip_detected () =
  let sys, b = system_with_data () in
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  flip_blob swap b;
  let cpu = Harness.System.cpu sys in
  expect_terminated ~sub:"MAC" (fun () ->
      Sgx.Cpu.read cpu (b * Sgx.Types.page_bytes))

let test_stale_replay_detected () =
  let sys, b = system_with_data () in
  let rt = Harness.System.runtime_exn sys in
  let pager = Autarky.Runtime.pager rt in
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  (* Fetch the page, evict it (blob v1), stash v1, cycle it once more
     (blob v2 carries a fresh anti-replay nonce), then replay v1. *)
  Autarky.Pager.fetch pager [ b ];
  Autarky.Pager.evict pager [ b ];
  let stale, pcmd =
    match Sim_os.Swap_store.peek swap b with
    | Some entry -> entry
    | None -> Alcotest.fail "no blob after eviction"
  in
  Autarky.Pager.fetch pager [ b ];
  Autarky.Pager.evict pager [ b ];
  Sim_os.Swap_store.replace_raw swap b stale ~pcmd;
  expect_terminated ~sub:"stale" (fun () -> Autarky.Pager.fetch pager [ b ])

(* --- a flipped bit anywhere in a stored row is caught ------------------ *)

(* A bit of the row picked field by field, so the 24-byte trailer is hit
   as often as the ciphertext: [field] 0 is the ciphertext, 1-3 the
   vaddr, version and MAC words; [off] is taken modulo the field's
   width in bits. *)
let row_bit row (field, off) =
  let n = Sim_crypto.Sealer.ciphertext_length row in
  if field = 0 then off mod (8 * n) else (8 * n) + (64 * (field - 1)) + (off mod 64)

let gen_row_bit = QCheck2.Gen.(pair (int_bound 3) nat)

(* A V1 row, which EWB sealed (here: a boot page the store seals on
   this first read), fails ELDU.  A failed ELDU consumes nothing, so one system serves
   every case. *)
let v1_system = lazy (system_with_data ())

let flipped_row_fails_eldu pick =
  let sys, b = Lazy.force v1_system in
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  match Sim_os.Swap_store.peek swap b with
  | Some (row, pcmd) -> (
    match
      Sgx.Instructions.eldu (Harness.System.machine sys) (Harness.System.enclave sys)
        ~vpage:b (flip_bit row (row_bit row pick)) ~pcmd
    with
    | Error (`Mac_mismatch | `Replayed) -> true
    | Ok _ | Error `Epc_full -> false)
  | None -> false

(* A V2 row, which the runtime sealed, makes the runtime's unseal fail:
   the enclave terminates on a page integrity violation. *)
let flipped_row_fails_runtime_unseal pick =
  let sys, b = system_with_data ~mech:`Sgx2 () in
  let pager = Autarky.Runtime.pager (Harness.System.runtime_exn sys) in
  Sgx.Cpu.read (Harness.System.cpu sys) (b * Sgx.Types.page_bytes);
  Autarky.Pager.evict pager [ b ];
  let swap = Sim_os.Kernel.swap (Harness.System.os sys) (Harness.System.proc sys) in
  match Sim_os.Swap_store.peek swap b with
  | Some (row, pcmd) -> (
    Sim_os.Swap_store.replace_raw swap b (flip_bit row (row_bit row pick)) ~pcmd;
    match Autarky.Pager.fetch pager [ b ] with
    | () -> false
    | exception Sgx.Types.Enclave_terminated { reason; _ } ->
      contains ~sub:"integrity violation" reason
      && (contains ~sub:"MAC mismatch" reason || contains ~sub:"replayed" reason))
  | None -> false

(* --- transient EPC-exhaustion bursts are recovered by retry ---------- *)

let test_epc_burst_recovered () =
  let inj =
    Inject.Injector.create ~seed:7L ~scenario:Inject.Fault.Epc_burst ~rate:1.0 ()
  in
  let sys =
    Harness.System.create
      ~wrap_os:(Inject.Injector.wrap_os inj)
      ~epc_frames:256 ~epc_limit:128 ~enclave_pages:512 ~self_paging:true
      ~budget:96 ()
  in
  let _prefix = Harness.System.reserve sys ~pages:128 in
  let b = Harness.System.reserve sys ~pages:64 in
  Harness.System.manage sys (List.init 64 (fun i -> b + i));
  let rt = Harness.System.runtime_exn sys in
  let rl = Autarky.Policy_rate_limit.create ~runtime:rt () in
  Autarky.Runtime.set_policy rt (Autarky.Policy_rate_limit.policy rl);
  Inject.Injector.attach inj ~sys ~targets:(List.init 64 (fun i -> b + i));
  Inject.Injector.tick inj;  (* rate 1.0: arms a burst of 1..4 refusals *)
  checki "one injection" 1 (Inject.Injector.injected inj);
  let cpu = Harness.System.cpu sys in
  Sgx.Cpu.read cpu (b * Sgx.Types.page_bytes);  (* must recover via retry *)
  checkb "page resident after retries" true
    (Autarky.Pager.resident (Autarky.Runtime.pager rt) b);
  checkb "retries counted" true
    (Metrics.Counters.get (Harness.System.counters sys) "rt.fetch_retries" > 0)

(* --- sustained pressure degrades the ORAM cache ---------------------- *)

let test_oram_shrink_degrades () =
  let sys =
    Harness.System.create ~epc_frames:256 ~epc_limit:128 ~enclave_pages:512
      ~self_paging:true ~budget:96 ()
  in
  let rt = Harness.System.runtime_exn sys in
  let data_base = Harness.System.reserve sys ~pages:32 in
  let cache_base = Harness.System.reserve sys ~pages:16 in
  let oram =
    Oram.Path_oram.create
      ~clock:(Harness.System.clock sys)
      ~rng:(Metrics.Rng.create ~seed:5L) ~n_blocks:32 ()
  in
  let cache =
    Autarky.Oram_cache.create
      ~machine:(Harness.System.machine sys)
      ~enclave:(Harness.System.enclave sys)
      ~touch:(fun a k -> Sgx.Cpu.access (Harness.System.cpu sys) a k)
      ~oram ~data_base_vpage:data_base ~n_pages:32
      ~cache_base_vpage:cache_base ~capacity_pages:16 ()
  in
  Harness.System.pin sys (List.init 16 (fun i -> cache_base + i));
  let pol = Autarky.Policy_oram.create ~runtime:rt ~cache in
  Autarky.Runtime.set_policy rt (Autarky.Policy_oram.policy pol);
  let os = Harness.System.os sys and proc = Harness.System.proc sys in
  (* First upcall: refused (everything is sensitive). *)
  checki "first balloon refused" 0
    (Sim_os.Kernel.request_balloon os proc ~pages:8);
  checki "cache intact" 16 (Autarky.Oram_cache.live_capacity cache);
  (* Sustained pressure: the cache shrinks and the freed pages are
     released to the OS. *)
  let released = Sim_os.Kernel.request_balloon os proc ~pages:8 in
  checkb "second balloon releases" true (released > 0);
  checkb "cache shrank" true (Autarky.Oram_cache.live_capacity cache < 16);
  checkb "degradation counted" true
    (Metrics.Counters.get (Harness.System.counters sys) "rt.policy_degraded" > 0);
  (* The cache still works at reduced capacity. *)
  Autarky.Oram_cache.write_stamp cache (data_base * Sgx.Types.page_bytes) 41;
  checki "cache still serves" 41
    (Autarky.Oram_cache.read_stamp cache (data_base * Sgx.Types.page_bytes))

(* --- satellite 4: termination storm exhausts the restart budget ------ *)

let test_restart_monitor_storm () =
  let s =
    Inject.Campaign.run ~seeds:[ 1; 2; 3; 4 ] ~ops:80
      ~scenarios:[ Inject.Fault.Reentry ]
      ~policies:[ Inject.Campaign.Rate_limit ] ~max_restarts:2 ()
  in
  checkb "all runs safe" true (s.Inject.Campaign.ok);
  let detected =
    List.filter
      (fun (r : Inject.Campaign.run_result) ->
        match r.r_outcome with Inject.Fault.Detected _ -> true | _ -> false)
      s.Inject.Campaign.runs
  in
  checkb "storm produced detections beyond the budget" true
    (List.length detected > 2);
  (match s.Inject.Campaign.monitor with
  | [ m ] ->
    checkb "monitor refuses further restarts" true m.Inject.Campaign.m_refused;
    checkb "leakage bound within the detected-run count" true
      (m.Inject.Campaign.m_leaked <= float_of_int (List.length detected))
  | _ -> Alcotest.fail "expected one monitor row")

(* --- a small campaign end to end ------------------------------------- *)

let test_small_campaign_verdicts () =
  let s =
    Inject.Campaign.run ~seeds:[ 1; 2 ] ~ops:60
      ~scenarios:
        [ Inject.Fault.Bit_flip; Inject.Fault.Drop_blob; Inject.Fault.Epc_burst;
          Inject.Fault.Balloon_storm ]
      ~policies:[ Inject.Campaign.Rate_limit; Inject.Campaign.Clusters ]
      ~verify_determinism:true ()
  in
  checki "no unsafe outcome" 0 s.Inject.Campaign.unsafe;
  checki "deterministic" 0 s.Inject.Campaign.nondeterministic;
  checkb "campaign ok" true s.Inject.Campaign.ok;
  checki "every cell ran" 16 (List.length s.Inject.Campaign.runs);
  (* Blob tampering under these policies must surface as detections. *)
  checkb "tampering detected somewhere" true
    (List.exists
       (fun (r : Inject.Campaign.run_result) ->
         match (r.r_scenario, r.r_outcome) with
         | (Inject.Fault.Bit_flip | Inject.Fault.Drop_blob),
           Inject.Fault.Detected _ -> true
         | _ -> false)
       s.Inject.Campaign.runs);
  (* Balloon storms must surface as graceful degradation. *)
  checkb "sustained pressure degrades" true
    (List.exists
       (fun (r : Inject.Campaign.run_result) ->
         r.r_scenario = Inject.Fault.Balloon_storm
         && r.r_outcome = Inject.Fault.Degraded)
       s.Inject.Campaign.runs)

let suite =
  [
    Alcotest.test_case "policy no-fetch is modeled termination" `Quick
      test_policy_no_fetch_terminates;
    Alcotest.test_case "deleted swap blob detected (SGXv1)" `Quick
      test_deleted_blob_detected_sgx1;
    Alcotest.test_case "deleted sealed blob detected (SGXv2)" `Quick
      test_deleted_blob_detected_sgx2;
    Alcotest.test_case "bit-flipped blob fails MAC and terminates" `Quick
      test_bit_flip_detected;
    Alcotest.test_case "stale blob replay detected" `Quick
      test_stale_replay_detected;
    Alcotest.test_case "EPC burst recovered by bounded retry" `Quick
      test_epc_burst_recovered;
    Alcotest.test_case "sustained pressure shrinks ORAM cache" `Quick
      test_oram_shrink_degrades;
    Alcotest.test_case "restart monitor refuses under termination storm" `Quick
      test_restart_monitor_storm;
    Alcotest.test_case "small campaign: all verdicts safe and deterministic"
      `Quick test_small_campaign_verdicts;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        QCheck2.Test.make ~name:"a flipped row bit fails ELDU (V1)" ~count:400
          gen_row_bit flipped_row_fails_eldu;
        QCheck2.Test.make ~name:"a flipped row bit fails the runtime's unseal (V2)"
          ~count:80 gen_row_bit flipped_row_fails_runtime_unseal;
      ]
