type writeback = [ `Always | `Dirty_only ]

type t = {
  machine : Sgx.Machine.t;
  enclave : Sgx.Enclave.t;
  touch : Sgx.Types.vaddr -> Sgx.Types.access_kind -> unit;
  oram : Oram.Path_oram.t;
  writeback : writeback;
  data_base : Sgx.Types.vpage;
  n_pages : int;
  cache_base : Sgx.Types.vpage;
  capacity : int;
  (* Slots [0, live) are in use; slots [live, capacity) have been
     released under memory pressure ({!shrink}) and are never touched
     again.  [live] only decreases. *)
  mutable live : int;
  slots : int array;
  slot_of : int array;  (* block -> occupying slot, -1 when uncached *)
  dirty : bool array;
  mutable hand : int;
  mutable hit_count : int;
  mutable miss_count : int;
  c_miss : Metrics.Counters.cell;
  (* The cache page of the copy in flight, and the ORAM callbacks that
     copy into and out of it: built once, so a miss allocates nothing. *)
  page : Sgx.Page_data.t ref;
  copy_in : Sgx.Page_data.t -> unit;
  copy_out : Sgx.Page_data.t -> unit;
}

let blit_page ~src ~dst =
  let s = Sgx.Page_data.to_bytes src and d = Sgx.Page_data.to_bytes dst in
  let n = min (Bytes.length s) (Bytes.length d) in
  Bytes.blit s 0 d 0 n

let create ?(writeback = `Dirty_only) ~machine ~enclave ~touch ~oram
    ~data_base_vpage ~n_pages ~cache_base_vpage ~capacity_pages () =
  if n_pages <= 0 then
    invalid_arg (Printf.sprintf "Oram_cache.create: n_pages %d is not positive" n_pages);
  if capacity_pages <= 0 then
    invalid_arg
      (Printf.sprintf "Oram_cache.create: capacity_pages %d is not positive" capacity_pages);
  if n_pages > Oram.Path_oram.n_blocks oram then
    invalid_arg
      (Printf.sprintf "Oram_cache.create: n_pages %d exceeds the ORAM's %d blocks" n_pages
         (Oram.Path_oram.n_blocks oram));
  let page = ref (Sgx.Page_data.create ()) in
  {
    machine;
    enclave;
    touch;
    oram;
    writeback;
    data_base = data_base_vpage;
    n_pages;
    cache_base = cache_base_vpage;
    capacity = capacity_pages;
    live = capacity_pages;
    slots = Array.make capacity_pages (-1);
    (* Blocks are dense in [0, n_pages): a flat block -> slot table
       makes the hit path a single array read. *)
    slot_of = Array.make n_pages (-1);
    dirty = Array.make capacity_pages false;
    hand = 0;
    hit_count = 0;
    miss_count = 0;
    c_miss = Metrics.Counters.cell (Sgx.Machine.counters machine) "oram_cache.miss";
    page;
    copy_in = (fun oram_data -> blit_page ~src:oram_data ~dst:!page);
    copy_out = (fun oram_data -> blit_page ~src:!page ~dst:oram_data);
  }

let in_data_region t vaddr =
  let vp = Sgx.Types.vpage_of_vaddr vaddr in
  vp >= t.data_base && vp < t.data_base + t.n_pages

let data_region t = (t.data_base, t.n_pages)
let hits t = t.hit_count
let misses t = t.miss_count
let live_capacity t = t.live

(* The frame lookup without {!Sgx.Instructions.page_data}'s option, so
   the miss path does not allocate. *)
let cache_page_data t slot =
  let epc = t.machine.Sgx.Machine.epc in
  let vpage = t.cache_base + slot in
  let frame = Sgx.Epc.frame_of_packed epc ~enclave_id:t.enclave.Sgx.Enclave.id ~vpage in
  if frame >= 0 then Sgx.Epc.data epc frame
  else Sgx.Types.sgx_errorf "ORAM cache page %d (0x%x) is not resident" slot vpage

let oblivious_copy_cost t =
  let m = Sgx.Machine.model t.machine in
  Sim_crypto.Oblivious.scan_cost m ~entries:1 ~entry_bytes:m.page_bytes

(* One oblivious page copy between cache page [data] and ORAM block
   [block]: [t.copy_in] fetches the block, [t.copy_out] writes it back. *)
let oram_copy t copy data block =
  Sgx.Machine.charge t.machine (oblivious_copy_cost t);
  t.page := data;
  Oram.Path_oram.access t.oram ~block copy

(* Swap a block into a cache slot: write the previous occupant back to
   the ORAM, then fetch the new block.  Each direction is an oblivious
   page copy.  Under [`Dirty_only] (CoSMIX's policy, the default) clean
   pages are dropped without an ORAM write — cheaper, but the write-back
   pattern then reveals page dirtiness; [`Always] hides it. *)
let fill_slot t slot block =
  let cache_data = cache_page_data t slot in
  let old_block = t.slots.(slot) in
  if old_block >= 0 then begin
    if t.writeback = `Always || t.dirty.(slot) then
      oram_copy t t.copy_out cache_data old_block;
    t.slot_of.(old_block) <- -1
  end;
  oram_copy t t.copy_in cache_data block;
  t.slots.(slot) <- block;
  t.dirty.(slot) <- false;
  t.slot_of.(block) <- slot

let slot_for t vaddr kind =
  let m = Sgx.Machine.model t.machine in
  (* Instrumentation overhead of the cache lookup itself. *)
  Sgx.Machine.charge t.machine (3 * m.mem_access);
  if not (in_data_region t vaddr) then
    invalid_arg "Oram_cache.access: address outside the protected region";
  let block = Sgx.Types.vpage_of_vaddr vaddr - t.data_base in
  match t.slot_of.(block) with
  | slot when slot >= 0 ->
    t.hit_count <- t.hit_count + 1;
    slot
  | _ ->
    t.miss_count <- t.miss_count + 1;
    Metrics.Counters.cell_incr t.c_miss;
    let slot = t.hand in
    t.hand <- (t.hand + 1) mod t.live;
    fill_slot t slot block;
    ignore kind;
    slot

(* Graceful degradation under memory pressure: give up the top cache
   slots (writing dirty occupants back to the ORAM first) and return the
   released cache vpages so the caller can hand their frames back to the
   OS.  The cache keeps at least a quarter of its original capacity —
   shrinking to nothing would turn every access into a full ORAM round
   trip *and* leave the round-robin hand nowhere to point. *)
let shrink t ~pages =
  let min_live = max 1 (t.capacity / 4) in
  let target = max min_live (t.live - pages) in
  let released = ref [] in
  while t.live > target do
    let slot = t.live - 1 in
    let block = t.slots.(slot) in
    if block >= 0 then begin
      if t.writeback = `Always || t.dirty.(slot) then
        oram_copy t t.copy_out (cache_page_data t slot) block;
      t.slot_of.(block) <- -1;
      t.slots.(slot) <- -1;
      t.dirty.(slot) <- false
    end;
    t.live <- slot;
    released := (t.cache_base + slot) :: !released
  done;
  if t.hand >= t.live then t.hand <- 0;
  !released

(* Policy-switch handoff: push every live occupant back to the ORAM
   (dirty ones — or all of them under [`Always] — through the oblivious
   protocol) and empty the cache, so the oblivious store is the single
   authoritative copy.  The cache stays usable afterwards; callers that
   are tearing the ORAM policy down evict the cache pages next. *)
let flush t =
  let written = ref 0 in
  for slot = 0 to t.live - 1 do
    let block = t.slots.(slot) in
    if block >= 0 then begin
      if t.writeback = `Always || t.dirty.(slot) then begin
        oram_copy t t.copy_out (cache_page_data t slot) block;
        incr written
      end;
      t.slot_of.(block) <- -1;
      t.slots.(slot) <- -1;
      t.dirty.(slot) <- false
    end
  done;
  t.hand <- 0;
  !written

let access t vaddr kind =
  let slot = slot_for t vaddr kind in
  let offset = vaddr land (Sgx.Types.page_bytes - 1) in
  t.touch (Sgx.Types.vaddr_of_vpage (t.cache_base + slot) + offset) kind;
  if kind = Sgx.Types.Write then t.dirty.(slot) <- true

let read_stamp t vaddr =
  let slot = slot_for t vaddr Sgx.Types.Read in
  t.touch (Sgx.Types.vaddr_of_vpage (t.cache_base + slot)) Sgx.Types.Read;
  Sgx.Page_data.read_int (cache_page_data t slot)

let write_stamp t vaddr v =
  let slot = slot_for t vaddr Sgx.Types.Write in
  t.touch (Sgx.Types.vaddr_of_vpage (t.cache_base + slot)) Sgx.Types.Write;
  t.dirty.(slot) <- true;
  Sgx.Page_data.fill_int (cache_page_data t slot) v
