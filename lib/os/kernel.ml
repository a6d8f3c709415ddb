open Sgx

type fault_decision = Benign | Fixed_silently

type proc = {
  enclave : Enclave.t;
  pt : Page_table.t;
  proc_swap : Swap_store.t;
  enclave_managed : Flat.t;
  intended_perms : Flat.t; (* vpage -> Types.perms_bits *)
  (* Victim queue of (page, seq) as a pair of int rings: only a page's
     latest seq is live, so a page that cycles out and back in queues
     at the back again. *)
  mutable orq_vp : int array;
  mutable orq_seq : int array;
  mutable orq_head : int;
  mutable orq_tail : int;
  queue_seq : Flat.t;
  mutable seq_counter : int;
  mutable resident_count : int;
  mutable epc_limit : int;
  mutable balloon_handler : (int -> int) option;
}

type hooks = {
  mutable on_fault : proc -> Types.os_fault_report -> fault_decision;
  mutable on_preempt : proc -> unit;
  mutable on_fetch : proc -> Types.vpage list -> unit;
}

(* Counter cells interned at kernel construction: the fault/fetch/evict
   and host-call paths run on every simulated paging event and must not
   hash counter names. *)
type cells = {
  k_fault : Metrics.Counters.cell;
  k_evict : Metrics.Counters.cell;
  k_fetch : Metrics.Counters.cell;
  k_remap : Metrics.Counters.cell;
  k_preempt : Metrics.Counters.cell;
  k_silent_resume : Metrics.Counters.cell;
  k_silent_resume_blocked : Metrics.Counters.cell;
  k_balloon_requests : Metrics.Counters.cell;
  k_balloon_released : Metrics.Counters.cell;
  k_sys_set_enclave_managed : Metrics.Counters.cell;
  k_sys_set_os_managed : Metrics.Counters.cell;
  k_sys_fetch_pages : Metrics.Counters.cell;
  k_sys_evict_pages : Metrics.Counters.cell;
  k_sys_aug_pages : Metrics.Counters.cell;
  k_sys_remove_pages : Metrics.Counters.cell;
  k_sys_page_in : Metrics.Counters.cell;
  k_sys_headroom : Metrics.Counters.cell;
}

type t = {
  machine : Machine.t;
  procs : (int, proc) Hashtbl.t;
  kernel_hooks : hooks;
  cells : cells;
}

type fetch_error =
  [ `Epc_exhausted
  | `Blob_missing of Types.vpage
  | `Blob_mac_mismatch of Types.vpage
  | `Blob_replayed of Types.vpage ]

let pp_fetch_error ppf = function
  | `Epc_exhausted -> Format.pp_print_string ppf "EPC exhausted"
  | `Blob_missing vp -> Format.fprintf ppf "backing-store blob for 0x%x missing" vp
  | `Blob_mac_mismatch vp ->
    Format.fprintf ppf "blob for 0x%x failed MAC verification" vp
  | `Blob_replayed vp -> Format.fprintf ppf "stale blob replayed for 0x%x" vp

let create machine =
  let cell = Metrics.Counters.cell (Machine.counters machine) in
  {
    machine;
    procs = Hashtbl.create 8;
    kernel_hooks =
      {
        on_fault = (fun _ _ -> Benign);
        on_preempt = (fun _ -> ());
        on_fetch = (fun _ _ -> ());
      };
    cells =
      {
        k_fault = cell "os.fault";
        k_evict = cell "os.evict";
        k_fetch = cell "os.fetch";
        k_remap = cell "os.remap";
        k_preempt = cell "os.preempt";
        k_silent_resume = cell "os.silent_resume";
        k_silent_resume_blocked = cell "os.silent_resume_blocked";
        k_balloon_requests = cell "os.balloon_requests";
        k_balloon_released = cell "os.balloon_released";
        k_sys_set_enclave_managed = cell "os.sys.set_enclave_managed";
        k_sys_set_os_managed = cell "os.sys.set_os_managed";
        k_sys_fetch_pages = cell "os.sys.fetch_pages";
        k_sys_evict_pages = cell "os.sys.evict_pages";
        k_sys_aug_pages = cell "os.sys.aug_pages";
        k_sys_remove_pages = cell "os.sys.remove_pages";
        k_sys_page_in = cell "os.sys.page_in";
        k_sys_headroom = cell "os.sys.headroom";
      };
  }

let machine t = t.machine
let hooks t = t.kernel_hooks

let charge t n = Machine.charge t.machine n
let cmodel t = Machine.model t.machine
let incr _t cell = Metrics.Counters.cell_incr cell

(* Kernel-side tracing: one branch when no recorder is installed. *)
let emit t proc ~actor k =
  match Machine.tracer t.machine with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr ~enclave:proc.enclave.id ~actor (k ())

let create_proc t ~size_pages ~self_paging ~epc_limit =
  let enclave = Instructions.ecreate t.machine ~size_pages ~self_paging in
  let proc =
    {
      enclave;
      pt = Page_table.create ();
      proc_swap = Swap_store.create t.machine.sealer;
      enclave_managed = Flat.create ();
      intended_perms = Flat.create ();
      orq_vp = Array.make 64 0;
      orq_seq = Array.make 64 0;
      orq_head = 0;
      orq_tail = 0;
      queue_seq = Flat.create ();
      seq_counter = 0;
      resident_count = 0;
      epc_limit;
      balloon_handler = None;
    }
  in
  Hashtbl.replace t.procs enclave.id proc;
  proc

let enclave proc = proc.enclave
let page_table proc = proc.pt
let resident_pages proc = proc.resident_count
let epc_limit proc = proc.epc_limit
let set_epc_limit proc n = proc.epc_limit <- n

let is_enclave_managed proc vp = Flat.mem proc.enclave_managed vp

(* Victim-queue ring: a power-of-two circular buffer of (vp, seq)
   pairs, grown by doubling.  Semantically identical to the old
   [Queue.t] of tuples, without a cons per push. *)
let orq_grow proc =
  let len = Array.length proc.orq_vp in
  let vp = Array.make (2 * len) 0 and seq = Array.make (2 * len) 0 in
  let n = proc.orq_tail - proc.orq_head in
  for j = 0 to n - 1 do
    let s = (proc.orq_head + j) land (len - 1) in
    vp.(j) <- proc.orq_vp.(s);
    seq.(j) <- proc.orq_seq.(s)
  done;
  proc.orq_vp <- vp;
  proc.orq_seq <- seq;
  proc.orq_head <- 0;
  proc.orq_tail <- n

let orq_length proc = proc.orq_tail - proc.orq_head
let orq_is_empty proc = proc.orq_head = proc.orq_tail

let orq_push proc vp seq =
  if orq_length proc = Array.length proc.orq_vp then orq_grow proc;
  let s = proc.orq_tail land (Array.length proc.orq_vp - 1) in
  proc.orq_vp.(s) <- vp;
  proc.orq_seq.(s) <- seq;
  proc.orq_tail <- proc.orq_tail + 1

(* Pop the head (vp, seq) pair; the caller checks emptiness. *)
let orq_pop proc =
  let s = proc.orq_head land (Array.length proc.orq_vp - 1) in
  proc.orq_head <- proc.orq_head + 1;
  (proc.orq_vp.(s), proc.orq_seq.(s))

let enqueue_os_resident proc vp =
  proc.seq_counter <- proc.seq_counter + 1;
  Flat.set proc.queue_seq vp proc.seq_counter;
  orq_push proc vp proc.seq_counter

let queue_entry_live proc vp seq = Flat.find proc.queue_seq vp = seq

let resident t proc vp =
  Epc.frame_of_packed t.machine.epc ~enclave_id:proc.enclave.id ~vpage:vp >= 0

let intended_perms_of proc vp =
  let bits = Flat.find proc.intended_perms vp in
  if bits >= 0 then Types.perms_of_bits bits else Types.perms_rw

(* Install a PTE honouring the Autarky contract: for self-paging
   enclaves the OS must pre-set accessed and dirty, since the hardware
   will treat clear bits as an invalid PTE. *)
let map_page proc ~vpage ~frame ~perms =
  Flat.set proc.intended_perms vpage (Types.perms_bits perms);
  let preset = proc.enclave.self_paging in
  Page_table.map_packed proc.pt ~vpage
    (Page_table.pack ~frame ~perms ~accessed:preset ~dirty:preset)

let add_initial_page t proc ~vpage ~data ~perms =
  (match proc.enclave.state with
  | Enclave.Created -> ()
  | _ -> Types.sgx_errorf "add_initial_page: enclave %d already initialized"
           proc.enclave.id);
  Flat.set proc.intended_perms vpage (Types.perms_bits perms);
  let headroom =
    Epc.free_frames t.machine.epc > 0 && proc.resident_count < proc.epc_limit
  in
  if headroom then begin
    let frame =
      Instructions.eadd t.machine proc.enclave ~vpage ~data ~perms
        ~ptype:Types.Pt_reg
    in
    map_page proc ~vpage ~frame ~perms;
    proc.resident_count <- proc.resident_count + 1;
    enqueue_os_resident proc vpage
  end
  else begin
    (* Image exceeds the process's EPC allowance: place the page directly
       in the backing store (added-and-evicted during initialization),
       its row sealed when something first reads it. *)
    (if Machine.free_va_slots t.machine < 1 then
       match Instructions.epa t.machine with
       | Ok _ -> ()
       | Error `Epc_full ->
         Types.sgx_errorf "cannot provision a version-array page: EPC full");
    let version, pcmd =
      Instructions.reserve_swap_slot t.machine proc.enclave ~vpage ~perms
        ~ptype:Types.Pt_reg
    in
    Swap_store.put_deferred proc.proc_swap vpage ~version
      (Page_data.to_bytes data) ~pcmd
  end

let finalize t proc = Instructions.einit t.machine proc.enclave

(* --- Eviction -------------------------------------------------------- *)

(* Keep anti-replay capacity available: provision a version-array page
   whenever the free-slot pool runs dry (and a frame can be found). *)
let ensure_va_slots t ~needed =
  while Machine.free_va_slots t.machine < needed do
    match Instructions.epa t.machine with
    | Ok _ -> ()
    | Error `Epc_full ->
      Types.sgx_errorf "cannot provision a version-array page: EPC full"
  done

let rec eblock_all t proc = function
  | [] -> ()
  | vp :: rest ->
    Instructions.eblock t.machine proc.enclave ~vpage:vp;
    eblock_all t proc rest

let rec ewb_all t proc ~os_initiated = function
  | [] -> ()
  | vp :: rest ->
    let row, pcmd = Instructions.ewb t.machine proc.enclave ~vpage:vp in
    Swap_store.put proc.proc_swap vp row ~pcmd;
    Page_table.unmap proc.pt vp;
    proc.resident_count <- proc.resident_count - 1;
    if os_initiated then incr t t.cells.k_evict;
    ewb_all t proc ~os_initiated rest

(* The architectural eviction protocol, batched the way the SGX driver
   does it: EBLOCK every victim, one ETRACK (TLB shootdown), then EWB
   each page out.  The per-page loops are top-level recursions, so a
   batch builds no closures. *)
let do_evict_batch ?(os_initiated = true) t proc vps =
  match vps with
  | [] -> ()
  | _ ->
    ensure_va_slots t ~needed:(List.length vps);
    eblock_all t proc vps;
    Instructions.etrack t.machine proc.enclave;
    ewb_all t proc ~os_initiated vps;
    (* Inline tracer match: a thunk here would capture [vps] and
       allocate per eviction batch even with tracing off. *)
    match Machine.tracer t.machine with
    | None -> ()
    | Some tr ->
      Trace.Recorder.emit tr ~enclave:proc.enclave.id ~actor:Trace.Event.Os
        (Trace.Event.Evict { vpages = vps; enclave_initiated = not os_initiated })

let do_evict ?(os_initiated = true) t proc vp =
  do_evict_batch ~os_initiated t proc [ vp ]

(* Victim selection among resident OS-managed pages: clock (second
   chance via accessed bits) for legacy enclaves, FIFO for self-paging
   enclaves whose accessed bits the OS can no longer read usefully. *)
let choose_victim t proc =
  let budget = ref ((2 * orq_length proc) + 1) in
  let result = ref (-1) in
  while !result < 0 && (not (orq_is_empty proc)) && !budget > 0 do
    decr budget;
    let vp, seq = orq_pop proc in
    if
      queue_entry_live proc vp seq
      && resident t proc vp
      && not (is_enclave_managed proc vp)
    then
      if not proc.enclave.self_paging then begin
        let p = Page_table.find_packed proc.pt vp in
        if p >= 0 && Page_table.p_accessed p && !budget > 0 then begin
          Page_table.clear_accessed proc.pt vp;
          enqueue_os_resident proc vp
        end
        else result := vp
      end
      else result := vp
  done;
  if !result >= 0 then Some !result else None

(* Headroom check and deficit as plain functions: the old let-bound
   [ok]/[deficit] thunks and the [progress]/[victims] refs allocated on
   every fetch even when headroom already existed — and every
   demand-fetch passes through here. *)
let headroom_ok t proc ~extra =
  Epc.free_frames t.machine.epc >= extra
  && proc.resident_count + extra <= proc.epc_limit

let headroom_deficit t proc ~extra =
  max
    (extra - Epc.free_frames t.machine.epc)
    (proc.resident_count + extra - proc.epc_limit)

(* Gather up to [n] victims; the latest choice ends at the head, the
   order the old ref-accumulating loop produced. *)
let rec collect_victims t proc n acc =
  if n <= 0 then acc
  else
    match choose_victim t proc with
    | Some vp -> collect_victims t proc (n - 1) (vp :: acc)
    | None -> acc

(* Collect the whole deficit per round so eviction pays for one ETRACK. *)
let rec ensure_headroom t proc ~extra =
  if headroom_ok t proc ~extra then Ok ()
  else
    match collect_victims t proc (headroom_deficit t proc ~extra) [] with
    | [] -> Error `Epc_exhausted
    | victims ->
      do_evict_batch t proc victims;
      ensure_headroom t proc ~extra

(* --- Fetch ----------------------------------------------------------- *)

(* No blob: either the page is resident but was unmapped or had its
   permissions restricted — restore the intended mapping — or the OS
   deleted the blob of a swapped-out page (a Byzantine fault the
   runtime must detect). *)
let fetch_without_blob t proc vp : (unit, fetch_error) result =
  let frame =
    Epc.frame_of_packed t.machine.epc ~enclave_id:proc.enclave.id ~vpage:vp
  in
  if frame >= 0 then begin
    map_page proc ~vpage:vp ~frame ~perms:(intended_perms_of proc vp);
    incr t t.cells.k_remap;
    Ok ()
  end
  else Error (`Blob_missing vp)

(* The blob leaves the store before ELDU runs, so one that fails its MAC
   or replay check is gone either way. *)
let do_fetch t proc vp ~pinned : (unit, fetch_error) result =
  let swap = proc.proc_swap in
  let slot = Swap_store.slot swap vp in
  if slot < 0 then fetch_without_blob t proc vp
  else
    let row = Swap_store.row_at swap slot and pcmd = Swap_store.pcmd_at swap slot in
    Swap_store.delete swap vp;
    if pcmd = Swap_store.runtime_sealed then
      Types.sgx_errorf "OS fetch of runtime-sealed (SGXv2) page 0x%x" vp
    else
      match Instructions.eldu t.machine proc.enclave ~vpage:vp row ~pcmd with
      | Ok frame ->
        map_page proc ~vpage:vp ~frame ~perms:(Instructions.pcmd_perms pcmd);
        proc.resident_count <- proc.resident_count + 1;
        if not pinned then enqueue_os_resident proc vp;
        if not pinned then incr t t.cells.k_fetch;
        (match Machine.tracer t.machine with
        | None -> ()
        | Some tr ->
          Trace.Recorder.emit tr ~enclave:proc.enclave.id ~actor:Trace.Event.Os
            (Trace.Event.Fetch { vpages = [ vp ]; enclave_initiated = pinned }));
        (* The page just became resident: the demand-paging side channel
           (§4) — an observing OS always sees this. *)
        t.kernel_hooks.on_fetch proc [ vp ];
        Ok ()
      | Error `Mac_mismatch -> Error (`Blob_mac_mismatch vp)
      | Error `Replayed -> Error (`Blob_replayed vp)
      | Error `Epc_full ->
        (* The caller ensured headroom; running out here is a simulator
           bug, not OS behaviour. *)
        Types.sgx_errorf "ELDU: EPC full after headroom check for page 0x%x" vp

(* --- Fault handling -------------------------------------------------- *)

(* Legacy enclaves have no trusted layer to turn OS misbehaviour into a
   modeled termination, so failures here stay simulator errors. *)
let service_legacy_fault t proc vp =
  let fetched =
    if not (Swap_store.mem proc.proc_swap vp) then do_fetch t proc vp ~pinned:false
    else
      match ensure_headroom t proc ~extra:1 with
      | Ok () -> do_fetch t proc vp ~pinned:false
      | Error `Epc_exhausted ->
        Types.sgx_errorf "OS cannot make EPC headroom for page 0x%x" vp
  in
  match fetched with
  | Ok () -> ()
  | Error e ->
    Types.sgx_errorf "legacy demand paging failed for page 0x%x: %s" vp
      (Format.asprintf "%a" pp_fetch_error e)

let handle_fault t (report : Types.os_fault_report) =
  let proc =
    match Hashtbl.find_opt t.procs report.fr_enclave_id with
    | Some p -> p
    | None -> Types.sgx_errorf "fault for unknown enclave %d" report.fr_enclave_id
  in
  charge t (cmodel t).os_fault_handler;
  incr t t.cells.k_fault;
  let decision = t.kernel_hooks.on_fault proc report in
  if proc.enclave.self_paging then
    (* The OS knows only that some fault occurred.  Attempting to resume
       silently fails (pending-exception flag); the only way forward is
       re-entering the enclave through its trusted handler. *)
    match Instructions.eresume t.machine proc.enclave with
    | Ok () -> ()
    | Error `Pending_exception ->
      incr t t.cells.k_silent_resume_blocked;
      Instructions.enter_handler_and_resume t.machine proc.enclave
  else begin
    (match decision with
    | Fixed_silently -> incr t t.cells.k_silent_resume
    | Benign ->
      service_legacy_fault t proc (Types.vpage_of_vaddr report.fr_vaddr));
    match Instructions.eresume t.machine proc.enclave with
    | Ok () -> ()
    | Error `Pending_exception ->
      Types.sgx_errorf "legacy enclave %d has a pending exception" proc.enclave.id
  end

let handle_preempt t ~enclave_id =
  match Hashtbl.find_opt t.procs enclave_id with
  | None -> ()
  | Some proc ->
    charge t (cmodel t).syscall;
    incr t t.cells.k_preempt;
    t.kernel_hooks.on_preempt proc

let os_callbacks t =
  {
    Cpu.handle_enclave_fault = (fun report -> handle_fault t report);
    handle_preempt = (fun ~enclave_id -> handle_preempt t ~enclave_id);
  }

(* --- Autarky system calls -------------------------------------------- *)

let charge_hostcall t proc cell ~pages =
  charge t (cmodel t).exitless_call;
  incr t cell;
  match Machine.tracer t.machine with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr ~enclave:proc.enclave.id ~actor:Trace.Event.Os
      (Trace.Event.Syscall { name = Metrics.Counters.name cell; pages })

let ay_set_enclave_managed t proc pages =
  charge_hostcall t proc t.cells.k_sys_set_enclave_managed ~pages:(List.length pages);
  List.map
    (fun vp ->
      Flat.set proc.enclave_managed vp 1;
      (vp, resident t proc vp))
    pages

let ay_set_os_managed t proc pages =
  charge_hostcall t proc t.cells.k_sys_set_os_managed ~pages:(List.length pages);
  List.iter
    (fun vp ->
      Flat.remove proc.enclave_managed vp;
      if resident t proc vp then enqueue_os_resident proc vp)
    pages

(* Stop at the first blob fault: the error names the offending page so
   the runtime can report exactly what the OS broke.  Top-level so the
   batch call builds no closure. *)
let rec fetch_all t proc = function
  | [] -> Ok ()
  | vp :: rest -> (
    match do_fetch t proc vp ~pinned:true with
    | Ok () -> fetch_all t proc rest
    | Error _ as e -> e)

(* How many of [pages] are resident, counted without building a list:
   the batch calls hand the caller's list on as is unless it is mixed. *)
let rec count_resident t proc n = function
  | [] -> n
  | vp :: rest ->
    count_resident t proc (if resident t proc vp then n + 1 else n) rest

let ay_fetch_pages t proc pages =
  let len = List.length pages in
  charge_hostcall t proc t.cells.k_sys_fetch_pages ~pages:len;
  let n = len - count_resident t proc 0 pages in
  let needed =
    if n = len then pages
    else List.filter (fun vp -> not (resident t proc vp)) pages
  in
  match ensure_headroom t proc ~extra:n with
  | Error `Epc_exhausted -> Error `Epc_exhausted
  | Ok () -> fetch_all t proc needed

(* Single-page variant of [ay_fetch_pages]: the demand-fetch path runs
   once per fault, so it skips the list filtering and length plumbing.
   Counters, charges, trace events and failure behaviour are those of
   [ay_fetch_pages t proc [vp]] exactly. *)
let ay_fetch_page t proc vp =
  charge_hostcall t proc t.cells.k_sys_fetch_pages ~pages:1;
  let extra = if resident t proc vp then 0 else 1 in
  match ensure_headroom t proc ~extra with
  | Error `Epc_exhausted -> Error `Epc_exhausted
  | Ok () -> if extra = 0 then Ok () else do_fetch t proc vp ~pinned:true

let ay_evict_pages t proc pages =
  let len = List.length pages in
  charge_hostcall t proc t.cells.k_sys_evict_pages ~pages:len;
  do_evict_batch ~os_initiated:false t proc
    (if count_resident t proc 0 pages = len then pages
     else List.filter (resident t proc) pages)

let ay_aug_pages t proc pages =
  charge_hostcall t proc t.cells.k_sys_aug_pages ~pages:(List.length pages);
  let needed = List.filter (fun vp -> not (resident t proc vp)) pages in
  match ensure_headroom t proc ~extra:(List.length needed) with
  | Error `Epc_exhausted -> Error `Epc_exhausted
  | Ok () ->
    List.iter
      (fun vp ->
        match Instructions.eaug t.machine proc.enclave ~vpage:vp with
        | Ok frame ->
          map_page proc ~vpage:vp ~frame ~perms:Types.perms_rw;
          proc.resident_count <- proc.resident_count + 1
        | Error `Epc_full -> Types.sgx_errorf "EAUG: EPC full after headroom check")
      needed;
    (* The EAUG path bypasses [do_fetch]; residency is equally visible. *)
    if needed <> [] then t.kernel_hooks.on_fetch proc needed;
    Ok ()

(* Single-page variant of [ay_aug_pages], mirroring
   [ay_aug_pages t proc [vp]] event-for-event (the SGXv2 fault path
   augments one page per miss). *)
let ay_aug_page t proc vp =
  charge_hostcall t proc t.cells.k_sys_aug_pages ~pages:1;
  let extra = if resident t proc vp then 0 else 1 in
  match ensure_headroom t proc ~extra with
  | Error `Epc_exhausted -> Error `Epc_exhausted
  | Ok () ->
    if extra = 1 then begin
      (match Instructions.eaug t.machine proc.enclave ~vpage:vp with
      | Ok frame ->
        map_page proc ~vpage:vp ~frame ~perms:Types.perms_rw;
        proc.resident_count <- proc.resident_count + 1
      | Error `Epc_full -> Types.sgx_errorf "EAUG: EPC full after headroom check");
      t.kernel_hooks.on_fetch proc [ vp ]
    end;
    Ok ()

let ay_remove_pages t proc pages =
  charge_hostcall t proc t.cells.k_sys_remove_pages ~pages:(List.length pages);
  List.iter
    (fun vp ->
      if resident t proc vp then begin
        Instructions.eremove t.machine proc.enclave ~vpage:vp;
        Page_table.unmap proc.pt vp;
        proc.resident_count <- proc.resident_count - 1
      end)
    pages

let blob_store t proc vp sealed =
  charge t (cmodel t).dram_access;
  Swap_store.put proc.proc_swap vp sealed ~pcmd:Swap_store.runtime_sealed

let blob_load t proc vp =
  charge t (cmodel t).dram_access;
  let swap = proc.proc_swap in
  if not (Swap_store.mem_runtime_sealed swap vp) then None
  else begin
    let row = Swap_store.row_at swap (Swap_store.slot swap vp) in
    Swap_store.delete swap vp;
    Some row
  end

let page_in_os_managed t proc vp : (unit, fetch_error) result =
  charge_hostcall t proc t.cells.k_sys_page_in ~pages:1;
  if not (resident t proc vp) && Swap_store.mem proc.proc_swap vp then
    match ensure_headroom t proc ~extra:1 with
    | Ok () -> do_fetch t proc vp ~pinned:false
    | Error `Epc_exhausted -> Error `Epc_exhausted
  else do_fetch t proc vp ~pinned:false

let epc_headroom t proc =
  charge_hostcall t proc t.cells.k_sys_headroom ~pages:0;
  max 0 (proc.epc_limit - proc.resident_count)

(* --- Memory ballooning ------------------------------------------------ *)

let set_balloon_handler _t proc handler = proc.balloon_handler <- Some handler

let request_balloon t proc ~pages =
  match proc.balloon_handler with
  | None -> 0
  | Some handler ->
    let cm = cmodel t in
    (* The upcall enters the enclave and returns: one EENTER/EEXIT pair
       on top of whatever eviction work the policy performs. *)
    charge t (cm.eenter + cm.eexit);
    incr t t.cells.k_balloon_requests;
    (* The handler evicts through the normal ay_evict_pages path, which
       keeps the resident accounting straight. *)
    let released = handler pages in
    Metrics.Counters.cell_add t.cells.k_balloon_released released;
    emit t proc ~actor:Trace.Event.Os (fun () ->
        Trace.Event.Balloon { requested = pages; released });
    released

let release_proc t proc =
  let id = proc.enclave.Enclave.id in
  (* EREMOVE-equivalent teardown of every frame the enclave still holds
     (including frames a dead enclave can no longer release itself). *)
  let frames = Epc.frames_of_enclave t.machine.epc ~enclave_id:id in
  List.iter
    (fun frame ->
      charge t (cmodel t).eremove;
      Epc.release t.machine.epc frame)
    frames;
  (* The VA slots of the pages still swapped out go back to the free
     pool: nothing will ELDU them now.  A slot is cleared only while it
     holds its entry's version, so a stale or forged entry the OS
     planted cannot free a slot another page has taken since.  Reading
     versions seals no deferred entry. *)
  Swap_store.iter_versions
    (fun version pcmd ->
      if pcmd <> Swap_store.runtime_sealed then begin
        let slot = Instructions.pcmd_va_slot pcmd in
        let v = Machine.read_va_slot t.machine slot in
        if v >= 0 && v = version then Machine.clear_va_slot t.machine slot
      end)
    proc.proc_swap;
  (match proc.enclave.Enclave.state with
  | Enclave.Dead _ -> ()
  | _ -> proc.enclave.Enclave.state <- Enclave.Dead "released by OS");
  Epc.drop_enclave t.machine.epc ~enclave_id:id;
  proc.resident_count <- 0;
  proc.balloon_handler <- None;
  Hashtbl.remove t.procs id

let reclaim_for_shrink t proc ~target =
  let progress = ref true in
  while proc.resident_count > target && !progress do
    match choose_victim t proc with
    | Some vp -> do_evict t proc vp
    | None -> progress := false
  done

let reclaim_global t ~needed ~requester =
  let requester_id = (enclave requester).Enclave.id in
  let others =
    Hashtbl.fold
      (fun id p acc -> if id <> requester_id then p :: acc else acc)
      t.procs []
  in
  let free () = Epc.free_frames t.machine.epc in
  (* First take other processes' OS-managed pages... *)
  List.iter
    (fun p ->
      let progress = ref true in
      while free () < needed && !progress do
        match choose_victim t p with
        | Some vp -> do_evict t p vp
        | None -> progress := false
      done)
    others;
  (* ...then ask their enclaves to deflate. *)
  List.iter
    (fun p ->
      if free () < needed then
        ignore (request_balloon t p ~pages:(needed - free ())))
    others;
  if free () >= needed then Ok () else Error `Epc_exhausted

(* --- Adversarial manipulation ---------------------------------------- *)

let probe t proc name vp =
  (* Attacker probes are cold-path and open-vocabulary; keep the string
     API here. *)
  Metrics.Counters.incr (Machine.counters t.machine) ("attacker." ^ name);
  match Machine.tracer t.machine with
  | None -> ()
  | Some tr ->
    Trace.Recorder.emit tr ~enclave:proc.enclave.id ~actor:Trace.Event.Attacker
      (Trace.Event.Probe { probe = name; vpages = [ vp ] })

let attacker_unmap t proc vp =
  Page_table.set_present proc.pt vp false;
  Tlb.flush_page t.machine.tlb vp;
  probe t proc "unmap" vp

let attacker_restore t proc vp =
  let frame = Epc.frame_of_packed t.machine.epc ~enclave_id:proc.enclave.id ~vpage:vp in
  if frame >= 0 then
    map_page proc ~vpage:vp ~frame ~perms:(intended_perms_of proc vp);
  probe t proc "restore" vp

let attacker_set_perms t proc vp perms =
  (try Page_table.set_perms proc.pt vp perms with Not_found -> ());
  Tlb.flush_page t.machine.tlb vp;
  probe t proc "set_perms" vp

let attacker_clear_accessed t proc vp =
  Page_table.clear_accessed proc.pt vp;
  Tlb.flush_page t.machine.tlb vp;
  probe t proc "clear_accessed" vp

let attacker_clear_dirty t proc vp =
  Page_table.clear_dirty proc.pt vp;
  Tlb.flush_page t.machine.tlb vp;
  probe t proc "clear_dirty" vp

let attacker_read_ad t proc vp =
  emit t proc ~actor:Trace.Event.Attacker (fun () ->
      Trace.Event.Probe { probe = "read_ad"; vpages = [ vp ] });
  let p = Page_table.find_packed proc.pt vp in
  if p >= 0 then Some (Page_table.p_accessed p, Page_table.p_dirty p) else None

let attacker_map_wrong t proc ~victim ~other =
  let frame = Epc.frame_of_packed t.machine.epc ~enclave_id:proc.enclave.id ~vpage:other in
  if frame < 0 then
    Types.sgx_errorf "attacker_map_wrong: page 0x%x not resident" other;
  if Page_table.mapped proc.pt victim then Page_table.set_frame proc.pt victim frame
  else
    Page_table.map proc.pt ~vpage:victim ~frame ~perms:Types.perms_rw
      ~accessed:true ~dirty:true ();
  Tlb.flush_page t.machine.tlb victim;
  probe t proc "map_wrong" victim

let attacker_evict t proc vp =
  if resident t proc vp then do_evict t proc vp;
  probe t proc "evict" vp

let attacker_sample_branches t proc =
  let vps =
    Machine.drain_branches t.machine ~enclave_id:proc.enclave.Enclave.id
  in
  Metrics.Counters.incr (Machine.counters t.machine) "attacker.lbr_sample";
  emit t proc ~actor:Trace.Event.Attacker (fun () ->
      Trace.Event.Observe
        { channel = "lbr"; count = List.length vps; vpages = vps });
  vps

let swap _t proc = proc.proc_swap
