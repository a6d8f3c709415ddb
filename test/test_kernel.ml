(* Tests for the untrusted-OS model: enclave setup, demand paging,
   eviction policy, the Autarky system calls, fault handling for legacy
   and self-paging enclaves, and the adversarial manipulation API. *)

open Sgx

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let setup ?(self_paging = false) ?(epc_frames = 64) ?(epc_limit = 32)
    ?(enclave_pages = 48) () =
  let m = Helpers.machine ~epc_frames () in
  let os = Sim_os.Kernel.create m in
  let proc = Sim_os.Kernel.create_proc os ~size_pages:enclave_pages ~self_paging ~epc_limit in
  for i = 0 to enclave_pages - 1 do
    let data = Page_data.create () in
    Page_data.fill_int data (500 + i);
    Sim_os.Kernel.add_initial_page os proc
      ~vpage:((Sim_os.Kernel.enclave proc).base_vpage + i)
      ~data ~perms:Types.perms_rwx
  done;
  Sim_os.Kernel.finalize os proc;
  (m, os, proc)

let cpu_of m os proc =
  Cpu.create ~machine:m ~page_table:(Sim_os.Kernel.page_table proc)
    ~enclave:(Sim_os.Kernel.enclave proc) ~os:(Sim_os.Kernel.os_callbacks os) ()

let vp proc i = (Sim_os.Kernel.enclave proc).Enclave.base_vpage + i
let va proc i = Types.vaddr_of_vpage (vp proc i)

(* --- Setup and residency --------------------------------------------- *)

let test_initial_residency_respects_limit () =
  let _m, os, proc = setup () in
  checki "resident = limit" 32 (Sim_os.Kernel.resident_pages proc);
  checkb "early page resident" true (Sim_os.Kernel.resident os proc (vp proc 0));
  checkb "late page swapped" false (Sim_os.Kernel.resident os proc (vp proc 40));
  checkb "late page has a blob" true
    (Sim_os.Swap_store.mem (Sim_os.Kernel.swap os proc) (vp proc 40))

let test_legacy_demand_paging () =
  let m, os, proc = setup () in
  let cpu = cpu_of m os proc in
  (* Touch a swapped-out page: the OS pages it in transparently. *)
  Cpu.read cpu (va proc 40);
  checkb "page now resident" true (Sim_os.Kernel.resident os proc (vp proc 40));
  checki "content preserved" 540 (Cpu.read_stamp cpu (va proc 40));
  checki "one fault" 1 (Metrics.Counters.get (Machine.counters m) "cpu.page_fault")

let test_legacy_eviction_under_pressure () =
  let m, os, proc = setup () in
  let cpu = cpu_of m os proc in
  (* Touch every page: working set exceeds the 32-frame limit. *)
  for i = 0 to 47 do
    Cpu.read cpu (va proc i)
  done;
  checkb "limit respected" true (Sim_os.Kernel.resident_pages proc <= 32);
  checkb "evictions happened" true
    (Metrics.Counters.get (Machine.counters m) "os.evict" > 0);
  (* Contents survive eviction cycles. *)
  checki "content page 5" 505 (Cpu.read_stamp cpu (va proc 5));
  checki "content page 45" 545 (Cpu.read_stamp cpu (va proc 45))

let test_clock_second_chance () =
  let m, os, proc = setup ~epc_limit:8 ~enclave_pages:16 () in
  let cpu = cpu_of m os proc in
  (* Keep page 0 hot; stream the rest: clock should favour keeping 0. *)
  for i = 1 to 15 do
    Cpu.read cpu (va proc 0);
    Cpu.read cpu (va proc i)
  done;
  checkb "hot page still resident" true (Sim_os.Kernel.resident os proc (vp proc 0));
  ignore m

(* --- Autarky syscalls ------------------------------------------------- *)

let test_set_enclave_managed_reports_residency () =
  let _m, os, proc = setup ~self_paging:true () in
  let statuses =
    Sim_os.Kernel.ay_set_enclave_managed os proc [ vp proc 0; vp proc 40 ]
  in
  checkb "page 0 resident" true (List.assoc (vp proc 0) statuses);
  checkb "page 40 swapped" false (List.assoc (vp proc 40) statuses)

let test_fetch_evict_pages () =
  let m, os, proc = setup ~self_paging:true () in
  ignore (Sim_os.Kernel.ay_set_enclave_managed os proc [ vp proc 40 ]);
  (match Sim_os.Kernel.ay_fetch_pages os proc [ vp proc 40 ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "fetch failed");
  checkb "fetched" true (Sim_os.Kernel.resident os proc (vp proc 40));
  (* PTE must carry preset A/D bits for a self-paging enclave. *)
  (match Sim_os.Kernel.attacker_read_ad os proc (vp proc 40) with
  | Some (a, d) -> checkb "A/D preset" true (a && d)
  | None -> Alcotest.fail "no PTE");
  Sim_os.Kernel.ay_evict_pages os proc [ vp proc 40 ];
  checkb "evicted" false (Sim_os.Kernel.resident os proc (vp proc 40));
  ignore m

(* One steady-state SGXv1 page round trip through the kernel — EWB out
   through [ay_evict_pages], ELDU back through [ay_fetch_page] — may
   allocate what the sealer hands back and 8 fixed words (EWB's
   row-and-PCMD pair, the fetch hook's one-element list, ELDU's
   [Ok frame]), but no blob record, hash-table bucket, option, queue
   cell or boxed [Int64] on top.  The sealer's share is measured
   directly, with its [Int64] arguments boxed the same way: 43 words
   at the default 64-byte payload (the 13-word row, the 10-word
   plaintext, [Ok], the two digests and the four boxed arguments), so
   a round trip comes to 51 words; with blob records it was 59, 14 of
   them fixed. *)
let test_swap_round_trip_allocation () =
  if Helpers.native then begin
    let _m, os, proc = setup ~self_paging:true () in
    let p = vp proc 3 in
    ignore (Sim_os.Kernel.ay_set_enclave_managed os proc [ p ]);
    let victims = [ p ] in
    let round () =
      Sim_os.Kernel.ay_evict_pages os proc victims;
      match Sim_os.Kernel.ay_fetch_page os proc p with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "fetch failed"
    in
    (* Warm up: the VA page, the swap index and the tables have grown. *)
    for _ = 1 to 4 do round () done;
    let kernel = Helpers.words_allocated round in
    let sealer = Sim_crypto.Sealer.create ~master_key:"round-trip" in
    let plain = Bytes.make !Page_data.payload_bytes '\000' in
    let vaddr = Sys.opaque_identity (Types.vaddr_of_vpage p) in
    let version = Sys.opaque_identity 5 in
    let seal_unseal () =
      let sealed =
        Sim_crypto.Sealer.seal sealer ~vaddr:(Int64.of_int vaddr)
          ~version:(Int64.of_int version) plain
      in
      match
        Sim_crypto.Sealer.unseal sealer ~vaddr:(Int64.of_int vaddr)
          ~expected_version:(Int64.of_int version) sealed
      with
      | Ok b -> ignore (Sys.opaque_identity b)
      | Error _ -> Alcotest.fail "unseal failed"
    in
    seal_unseal ();
    let crypto = Helpers.words_allocated seal_unseal in
    (* 3 (row, PCMD) + 3 (hook list) + 2 (Ok frame). *)
    checkb
      (Printf.sprintf "%.0f words beyond the sealer's %.0f" (kernel -. crypto) crypto)
      true
      (kernel -. crypto <= 8.);
    if !Page_data.payload_bytes = 64 then
      checkb (Printf.sprintf "%.0f words per round trip" kernel) true (kernel <= 51.)
  end

let test_enclave_managed_pinned () =
  let _m, os, proc = setup ~self_paging:true ~epc_limit:8 ~enclave_pages:16 () in
  ignore (Sim_os.Kernel.ay_set_enclave_managed os proc [ vp proc 0; vp proc 1 ]);
  (* Force pressure: fetch many other pages as OS-managed. *)
  for i = 8 to 15 do
    match Sim_os.Kernel.page_in_os_managed os proc (vp proc i) with
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "page-in failed: %a" Sim_os.Kernel.pp_fetch_error e
  done;
  checkb "pinned page 0 still resident" true
    (Sim_os.Kernel.resident os proc (vp proc 0));
  checkb "pinned page 1 still resident" true
    (Sim_os.Kernel.resident os proc (vp proc 1))

let test_fetch_fails_when_exhausted () =
  let _m, os, proc = setup ~self_paging:true ~epc_limit:8 ~enclave_pages:16 () in
  (* Pin everything resident, leaving no evictable pages. *)
  let all = List.init 8 (fun i -> vp proc i) in
  ignore (Sim_os.Kernel.ay_set_enclave_managed os proc all);
  match Sim_os.Kernel.ay_fetch_pages os proc [ vp proc 12 ] with
  | Error `Epc_exhausted -> ()
  | Error e ->
    Alcotest.failf "unexpected error: %a" Sim_os.Kernel.pp_fetch_error e
  | Ok () -> Alcotest.fail "fetch should have failed"

let test_aug_remove_pages () =
  let m, os, proc = setup ~self_paging:true () in
  ignore (Sim_os.Kernel.ay_set_enclave_managed os proc [ vp proc 40 ]);
  (match Sim_os.Kernel.ay_aug_pages os proc [ vp proc 40 ] with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "aug failed");
  checkb "augmented resident" true (Sim_os.Kernel.resident os proc (vp proc 40));
  let enclave = Sim_os.Kernel.enclave proc in
  Instructions.eaccept m enclave ~vpage:(vp proc 40);
  (* Trim + accept, then ask the OS to remove. *)
  Instructions.emodt m enclave ~vpage:(vp proc 40);
  Instructions.eaccept m enclave ~vpage:(vp proc 40);
  Sim_os.Kernel.ay_remove_pages os proc [ vp proc 40 ];
  checkb "removed" false (Sim_os.Kernel.resident os proc (vp proc 40))

let test_blob_store_load () =
  let _m, os, proc = setup ~self_paging:true () in
  let sealer = Sim_crypto.Sealer.create ~master_key:"t" in
  let sealed = Sim_crypto.Sealer.seal sealer ~vaddr:1L ~version:1L (Bytes.make 8 'x') in
  Sim_os.Kernel.blob_store os proc (vp proc 3) sealed;
  (match Sim_os.Kernel.blob_load os proc (vp proc 3) with
  | Some s -> checkb "same blob" true (s == sealed)
  | None -> Alcotest.fail "blob lost");
  checkb "load consumes" true (Sim_os.Kernel.blob_load os proc (vp proc 3) = None)

let test_syscall_charges () =
  let m, os, proc = setup ~self_paging:true () in
  let before = Metrics.Clock.now Machine.(m.clock) in
  ignore (Sim_os.Kernel.ay_set_enclave_managed os proc [ vp proc 0 ]);
  let cm = Machine.model m in
  checkb "one exitless call charged" true
    (Metrics.Clock.now m.clock - before >= cm.exitless_call)

(* --- Fault handling paths --------------------------------------------- *)

let test_selfpaging_fault_forces_handler () =
  let m, os, proc = setup ~self_paging:true () in
  let enclave = Sim_os.Kernel.enclave proc in
  let handler_ran = ref false in
  enclave.entry <-
    (fun e ->
      handler_ran := true;
      (* Service the miss like a runtime would: fetch the page. *)
      let sf = Stack.top e.Enclave.tcs.ssa in
      let faulted = Types.vpage_of_vaddr sf.Types.sf_vaddr in
      match Sim_os.Kernel.ay_fetch_pages os proc [ faulted ] with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "fetch failed");
  let cpu = cpu_of m os proc in
  Cpu.read cpu (va proc 40);
  checkb "handler ran" true !handler_ran;
  checkb "silent resume was blocked" true
    (Metrics.Counters.get (Machine.counters m) "os.silent_resume_blocked" > 0)

let test_legacy_silent_resume_counter () =
  let m, os, proc = setup () in
  (Sim_os.Kernel.hooks os).on_fault <-
    (fun p report ->
      Sim_os.Kernel.attacker_restore os p
        (Types.vpage_of_vaddr report.Types.fr_vaddr);
      Sim_os.Kernel.Fixed_silently);
  let cpu = cpu_of m os proc in
  Sim_os.Kernel.attacker_unmap os proc (vp proc 3);
  Cpu.read cpu (va proc 3);
  checki "silently resumed" 1
    (Metrics.Counters.get (Machine.counters m) "os.silent_resume")

(* --- Adversarial API --------------------------------------------------- *)

let test_attacker_unmap_restore () =
  let m, os, proc = setup () in
  let cpu = cpu_of m os proc in
  Cpu.read cpu (va proc 2);
  Sim_os.Kernel.attacker_unmap os proc (vp proc 2);
  checkb "pte not present" false
    (Page_table.present (Sim_os.Kernel.page_table proc) (vp proc 2));
  Sim_os.Kernel.attacker_restore os proc (vp proc 2);
  checkb "restored" true
    (Page_table.present (Sim_os.Kernel.page_table proc) (vp proc 2))

let test_attacker_ad_reading () =
  let m, os, proc = setup () in
  let cpu = cpu_of m os proc in
  Sim_os.Kernel.attacker_clear_accessed os proc (vp proc 1);
  Cpu.read cpu (va proc 1);
  (match Sim_os.Kernel.attacker_read_ad os proc (vp proc 1) with
  | Some (a, _) -> checkb "access observed" true a
  | None -> Alcotest.fail "no PTE");
  ignore m

let test_attacker_evict_breaks_contract () =
  let _m, os, proc = setup ~self_paging:true () in
  ignore (Sim_os.Kernel.ay_set_enclave_managed os proc [ vp proc 0 ]);
  Sim_os.Kernel.attacker_evict os proc (vp proc 0);
  checkb "forcibly evicted" false (Sim_os.Kernel.resident os proc (vp proc 0))

(* --- the swap store against a Hashtbl model ---------------------------- *)

type swap_op =
  | Put of int * int  (* page, blob tag *)
  | Defer of int * int  (* page, version and PCMD *)
  | Replace of int * int
  | Take of int
  | Peek of int
  | Mem of int
  | Delete of int

(* An entry tagged twice, in its row's version and in its PCMD, so the
   model checks that the two arrays stay paired. *)
let swap_row tag =
  Sim_crypto.Sealer.make ~ciphertext:Bytes.empty ~vaddr:0L
    ~version:(Int64.of_int tag) ~mac:0L

let swap_tag (row, pcmd) =
  if Int64.to_int (Sim_crypto.Sealer.version row) = pcmd then pcmd else -1

let gen_swap_op =
  QCheck2.Gen.(
    let page = int_bound 95 in
    frequency
      [ (4, map2 (fun p t -> Put (p, t)) page nat);
        (2, map2 (fun p t -> Defer (p, t)) page nat);
        (1, map2 (fun p t -> Replace (p, t)) page nat);
        (3, map (fun p -> Take p) page);
        (1, map (fun p -> Peek p) page);
        (1, map (fun p -> Mem p) page);
        (1, map (fun p -> Delete p) page) ])

(* A deferred entry's plaintext: zero for even tags, else stamped with
   the tag, written into one buffer the caller reuses. *)
let defer_buffer = Bytes.create 64

let defer_plaintext t =
  Bytes.fill defer_buffer 0 64 '\000';
  if t land 1 = 1 then Bytes.set_int64_le defer_buffer 0 (Int64.of_int t);
  defer_buffer

type swap_model = {
  m_tag : int;
  m_plain : bytes option;  (* a deferred entry's plaintext *)
  mutable m_unread : bool;  (* deferred and not read since *)
}

(* Every operation's result, [size] and a probe of every page agree with
   a [Hashtbl] holding the same bindings; enough pages to grow the slot
   arrays past their initial 64.  The probe reads a deferred entry no
   one has read yet with [mem] only, so it stays deferred until a
   [Take] or [Peek] seals it; a sealed deferred row must unseal to the
   plaintext put.  At the end every entry is read through [slot]. *)
let swap_store_agrees ops =
  let sealer = Sim_crypto.Sealer.create ~master_key:"swap-model" in
  let st = Sim_os.Swap_store.create sealer and model = Hashtbl.create 16 in
  let entry_ok p got =
    match (got, Hashtbl.find_opt model p) with
    | None, None -> true
    | Some (row, pcmd), Some m ->
      swap_tag (row, pcmd) = m.m_tag
      && (match m.m_plain with
          | None -> true
          | Some plain ->
            Sim_crypto.Sealer.unseal sealer
              ~vaddr:(Int64.of_int (Types.vaddr_of_vpage p))
              ~expected_version:(Int64.of_int m.m_tag) row
            = Ok plain)
    | _ -> false
  in
  let read p =
    let got = Sim_os.Swap_store.peek st p in
    let ok = entry_ok p got in
    Option.iter (fun m -> m.m_unread <- false) (Hashtbl.find_opt model p);
    ok
  in
  let probe p =
    let s = Sim_os.Swap_store.slot st p in
    match Hashtbl.find_opt model p with
    | None -> s = -1
    | Some m ->
      m.m_unread <- false;
      s >= 0
      && swap_tag (Sim_os.Swap_store.row_at st s, Sim_os.Swap_store.pcmd_at st s)
         = m.m_tag
  in
  let stored t = { m_tag = t; m_plain = None; m_unread = false } in
  List.for_all
    (fun op ->
      let same =
        match op with
        | Put (p, t) ->
          Sim_os.Swap_store.put st p (swap_row t) ~pcmd:t;
          Hashtbl.replace model p (stored t);
          true
        | Defer (p, t) ->
          let plain = Bytes.copy (defer_plaintext t) in
          Sim_os.Swap_store.put_deferred st p ~version:t defer_buffer ~pcmd:t;
          Bytes.fill defer_buffer 0 64 '\xff';
          Hashtbl.replace model p { m_tag = t; m_plain = Some plain; m_unread = true };
          true
        | Replace (p, t) ->
          Sim_os.Swap_store.replace_raw st p (swap_row t) ~pcmd:t;
          Hashtbl.replace model p (stored t);
          true
        | Take p ->
          let ok = read p in
          Hashtbl.remove model p;
          Sim_os.Swap_store.delete st p;
          ok
        | Peek p -> read p
        | Mem p -> Sim_os.Swap_store.mem st p = Hashtbl.mem model p
        | Delete p ->
          Sim_os.Swap_store.delete st p;
          Hashtbl.remove model p;
          true
      in
      same
      && Sim_os.Swap_store.size st = Hashtbl.length model
      && List.for_all
           (fun p ->
             match Hashtbl.find_opt model p with
             | Some m when m.m_unread -> Sim_os.Swap_store.mem st p
             | _ -> probe p)
           (List.init 96 Fun.id))
    ops
  && List.for_all probe (List.init 96 Fun.id)

(* --- Teardown ------------------------------------------------------- *)

(* Boot a self-paging tenant on [m]/[os] and release it, returning only
   a weak pointer to its enclave.  Kept out of line so no register or
   stack slot of the caller holds the process. *)
let[@inline never] boot_and_release m os =
  let proc =
    Sim_os.Kernel.create_proc os ~size_pages:48 ~self_paging:true ~epc_limit:32
  in
  let sys = Harness.System.attach ~budget:16 ~machine:m ~os ~proc () in
  let rt = Harness.System.runtime_exn sys in
  Harness.System.manage sys (List.init 16 (fun i -> vp proc (24 + i)));
  Autarky.Pager.fetch (Autarky.Runtime.pager rt) [ vp proc 24; vp proc 25 ];
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Sim_os.Kernel.enclave proc));
  Sim_os.Kernel.release_proc os proc;
  w

(* Boot a 512-page enclave with an EPC limit of 64 on [os], so 448 of
   its pages start sealed in the swap store, each holding a VA slot. *)
let boot_swapped os =
  let proc =
    Sim_os.Kernel.create_proc os ~size_pages:512 ~self_paging:true ~epc_limit:64
  in
  for i = 0 to 511 do
    Sim_os.Kernel.add_initial_page os proc ~vpage:(vp proc i)
      ~data:(Page_data.create ()) ~perms:Types.perms_rw
  done;
  Sim_os.Kernel.finalize os proc;
  proc

(* Releasing a tenant hands back the VA slots of its swapped-out pages:
   six boot/release cycles reuse the one VA page the first boot
   provisioned.  Leaked slots would leave 64 more free per cycle and
   cost an EPA'd frame for good from the second cycle on. *)
let test_release_frees_va_slots () =
  let m = Helpers.machine ~epc_frames:256 () in
  let os = Sim_os.Kernel.create m in
  let after_release =
    List.init 6 (fun _ ->
        Sim_os.Kernel.release_proc os (boot_swapped os);
        (Epc.free_frames m.epc, Machine.free_va_slots m))
  in
  Alcotest.(check (list (pair int int)))
    "free EPC frames and VA slots after each release"
    (List.init 6 (fun _ -> (255, 512)))
    after_release

(* Teardown frees a slot only while it holds the row's own version: an
   entry the OS planted with another tenant's PCMD, naming that
   tenant's live slot, leaves the slot alone, and the other tenant
   still reloads its page. *)
let test_release_spares_forged_slot () =
  let m = Helpers.machine ~epc_frames:256 () in
  let os = Sim_os.Kernel.create m in
  let a = boot_swapped os and b = boot_swapped os in
  let swap_a = Sim_os.Kernel.swap os a and swap_b = Sim_os.Kernel.swap os b in
  let victim = vp b 100 in
  let victim_pcmd =
    match Sim_os.Swap_store.peek swap_b victim with
    | Some (_, pcmd) -> pcmd
    | None -> Alcotest.fail "page not swapped"
  in
  let slot = Instructions.pcmd_va_slot victim_pcmd in
  let version = Machine.read_va_slot m slot in
  (match Sim_os.Swap_store.peek swap_a (vp a 100) with
  | Some (row, _) -> Sim_os.Swap_store.replace_raw swap_a (vp a 100) row ~pcmd:victim_pcmd
  | None -> Alcotest.fail "page not swapped");
  Sim_os.Kernel.release_proc os a;
  checki "victim's slot keeps its version" version (Machine.read_va_slot m slot);
  match Sim_os.Kernel.page_in_os_managed os b victim with
  | Ok () -> checkb "victim reloaded" true (Sim_os.Kernel.resident os b victim)
  | Error e -> Alcotest.failf "reload failed: %a" Sim_os.Kernel.pp_fetch_error e

(* --- Deferred boot pages ---------------------------------------------- *)

(* A legacy process of 48 pages with an EPC limit of 16: pages 16-47
   start in the swap store, deferred. *)
let boot_deferred ~data =
  let m = Helpers.machine ~epc_frames:64 () in
  let os = Sim_os.Kernel.create m in
  let proc =
    Sim_os.Kernel.create_proc os ~size_pages:48 ~self_paging:false ~epc_limit:16
  in
  for i = 0 to 47 do
    Sim_os.Kernel.add_initial_page os proc ~vpage:(vp proc i) ~data:(data i)
      ~perms:Types.perms_rw
  done;
  Sim_os.Kernel.finalize os proc;
  (m, os, proc)

(* Page-in a page and read back its stamp. *)
let page_in_stamp m os proc i =
  (match Sim_os.Kernel.page_in_os_managed os proc (vp proc i) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "page-in failed: %a" Sim_os.Kernel.pp_fetch_error e);
  match Instructions.page_data m (Sim_os.Kernel.enclave proc) ~vpage:(vp proc i) with
  | Some d -> Page_data.read_int d
  | None -> Alcotest.failf "page %d not resident" i

(* The first read of a deferred page seals the row the reference sealer
   makes from the page's vaddr, its VA slot's version and its plaintext
   (stamped on odd pages, zero on even ones), byte for byte; ELDU then
   gives the stamp back. *)
let test_deferred_rows_match_reference () =
  let stamp i = if i land 1 = 1 then 700 + i else 0 in
  let m, os, proc =
    boot_deferred ~data:(fun i ->
        let d = Page_data.create () in
        if stamp i <> 0 then Page_data.fill_int d (stamp i);
        d)
  in
  let swap = Sim_os.Kernel.swap os proc in
  let reference = Sim_crypto.Sealer_ref.create ~master_key:"sgx-epc-paging-key" in
  checki "stored pages" 32 (Sim_os.Swap_store.size swap);
  for i = 16 to 47 do
    match Sim_os.Swap_store.peek swap (vp proc i) with
    | None -> Alcotest.failf "page %d not stored" i
    | Some (row, pcmd) ->
      let plain = Page_data.create () in
      if stamp i <> 0 then Page_data.fill_int plain (stamp i);
      let version = Machine.read_va_slot m (Instructions.pcmd_va_slot pcmd) in
      let expect =
        Sim_crypto.Sealer_ref.seal reference ~vaddr:(Int64.of_int (va proc i))
          ~version:(Int64.of_int version) (Page_data.to_bytes plain)
      in
      Alcotest.(check bytes)
        (Printf.sprintf "row of page %d" i)
        (Sim_crypto.Sealer.to_bytes expect) (Sim_crypto.Sealer.to_bytes row)
  done;
  for i = 16 to 47 do
    checki (Printf.sprintf "stamp of page %d" i) (stamp i) (page_in_stamp m os proc i)
  done

(* The store copies a deferred plaintext: pages added from one buffer
   the caller rewrites between calls each keep what it held then. *)
let test_deferred_put_copies_buffer () =
  let buf = Page_data.create () in
  let m, os, proc =
    boot_deferred ~data:(fun i ->
        Page_data.fill_int buf (900 + i);
        buf)
  in
  for i = 16 to 47 do
    checki (Printf.sprintf "stamp of page %d" i) (900 + i) (page_in_stamp m os proc i)
  done

(* Releasing a process whose deferred boot pages nothing read seals none
   of them: the store keeps its size in words, and the release allocates
   less than a word per stored page (a row is 13). *)
let test_release_seals_nothing () =
  let m = Helpers.machine ~epc_frames:256 () in
  let os = Sim_os.Kernel.create m in
  let proc = boot_swapped os in
  let swap = Sim_os.Kernel.swap os proc in
  let stored = Sim_os.Swap_store.size swap in
  let before = Obj.reachable_words (Obj.repr swap) in
  let words = Helpers.words_allocated (fun () -> Sim_os.Kernel.release_proc os proc) in
  checki "stored pages" 448 stored;
  checki "store words after release" before (Obj.reachable_words (Obj.repr swap));
  if Helpers.native then
    checkb
      (Printf.sprintf "%.0f words allocated < %d" words stored)
      true
      (words < float_of_int stored)

(* A row the OS cut below its trailer carries no version: teardown
   leaves that entry's slot alone, frees the other 447, and raises
   nothing. *)
let test_release_survives_short_row () =
  let m = Helpers.machine ~epc_frames:256 () in
  let os = Sim_os.Kernel.create m in
  let proc = boot_swapped os in
  let swap = Sim_os.Kernel.swap os proc in
  let p = vp proc 100 in
  let pcmd =
    match Sim_os.Swap_store.peek swap p with
    | Some (_, pcmd) -> pcmd
    | None -> Alcotest.fail "page not swapped"
  in
  Sim_os.Swap_store.replace_raw swap p (Sim_crypto.Sealer.of_bytes (Bytes.make 8 'x')) ~pcmd;
  Sim_os.Kernel.release_proc os proc;
  checki "free VA slots" 511 (Machine.free_va_slots m)

(* Nothing on the machine or in the kernel may pin a released enclave
   (through [Enclave.entry] it reaches the runtime, the pager and the
   sealed blobs). *)
let test_released_enclave_collected () =
  let m = Helpers.machine ~epc_frames:128 () in
  let os = Sim_os.Kernel.create m in
  let w = boot_and_release m os in
  Gc.full_major ();
  checkb "enclave collected" false (Weak.check w 0);
  (* The kernel, and through it the machine, outlived the collection. *)
  let proc =
    Sim_os.Kernel.create_proc os ~size_pages:8 ~self_paging:false ~epc_limit:8
  in
  checki "next enclave id" 2 (Sim_os.Kernel.enclave proc).Enclave.id

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make ~name:"swap store matches a Hashtbl model" ~count:300
        QCheck2.Gen.(list_size (int_range 1 300) gen_swap_op)
        swap_store_agrees;
    ]

let suite =
  [
    ("initial residency respects limit", `Quick, test_initial_residency_respects_limit);
    ("legacy demand paging", `Quick, test_legacy_demand_paging);
    ("legacy eviction under pressure", `Quick, test_legacy_eviction_under_pressure);
    ("clock second chance", `Quick, test_clock_second_chance);
    ("set_enclave_managed reports residency", `Quick,
     test_set_enclave_managed_reports_residency);
    ("ay_fetch/evict pages", `Quick, test_fetch_evict_pages);
    ("swap round trip allocates no boxes", `Quick, test_swap_round_trip_allocation);
    ("enclave-managed pages pinned", `Quick, test_enclave_managed_pinned);
    ("fetch fails when exhausted", `Quick, test_fetch_fails_when_exhausted);
    ("ay_aug/remove pages", `Quick, test_aug_remove_pages);
    ("blob store/load", `Quick, test_blob_store_load);
    ("release frees VA slots", `Quick, test_release_frees_va_slots);
    ("release spares a forged PCMD's slot", `Quick, test_release_spares_forged_slot);
    ("release seals nothing", `Quick, test_release_seals_nothing);
    ("release survives a short forged row", `Quick, test_release_survives_short_row);
    ("deferred rows match the reference", `Quick, test_deferred_rows_match_reference);
    ("deferred put copies the caller's buffer", `Quick, test_deferred_put_copies_buffer);
    ("syscall charges", `Quick, test_syscall_charges);
    ("self-paging fault forces handler", `Quick, test_selfpaging_fault_forces_handler);
    ("legacy silent resume", `Quick, test_legacy_silent_resume_counter);
    ("attacker unmap/restore", `Quick, test_attacker_unmap_restore);
    ("attacker A/D reading", `Quick, test_attacker_ad_reading);
    ("attacker evict breaks contract", `Quick, test_attacker_evict_breaks_contract);
    ("released enclave is collected", `Quick, test_released_enclave_collected);
  ]
  @ qcheck_cases
