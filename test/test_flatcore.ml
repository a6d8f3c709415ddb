(* Differential oracle tests for the flat-array SGX core.

   The hot-path structures (packed-int page table, open-addressing TLB,
   int->int Flat map) each keep their pre-rewrite boxed implementation
   around ([Page_table_ref], [Tlb_ref], plain [Hashtbl]) as an oracle.
   These tests drive identical operation sequences — scripted and
   QCheck-random — through both representations and demand
   observation-for-observation agreement: packed PTEs, hit/miss
   decisions, eviction order, exception behaviour, sizes.  A flat-core
   bug that changes any observable therefore fails here before it can
   silently shift fault sequences or trace digests downstream. *)

open Sgx

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let perms_of_bits b =
  Types.{ r = b land 1 <> 0; w = b land 2 <> 0; x = b land 4 <> 0 }

let kind_of i =
  match i mod 3 with 0 -> Types.Read | 1 -> Types.Write | _ -> Types.Exec

(* --- Packed-PTE encoding -------------------------------------------- *)

(* Exhaustive over perms x accessed x dirty (and a frame sample): the
   packed form must round-trip through every accessor, and the two
   implementations must share one encoding (the MMU walk reads packed
   PTEs straight out of either). *)
let test_pack_roundtrip () =
  List.iter
    (fun frame ->
      for bits = 0 to 7 do
        List.iter
          (fun (accessed, dirty) ->
            let perms = perms_of_bits bits in
            let p = Page_table.pack ~frame ~perms ~accessed ~dirty in
            checkb "present" true (Page_table.p_present p);
            checki "frame" frame (Page_table.p_frame p);
            checki "rwx" bits (Page_table.p_rwx p);
            checkb "accessed" accessed (Page_table.p_accessed p);
            checkb "dirty" dirty (Page_table.p_dirty p);
            checkb "perms" true (Page_table.p_perms p = perms);
            List.iter
              (fun k ->
                checkb "allows" (Types.perms_allow perms k)
                  (Page_table.p_allows p k))
              [ Types.Read; Types.Write; Types.Exec ];
            checki "ref same encoding" p
              (Page_table_ref.pack ~frame ~perms ~accessed ~dirty))
          [ (false, false); (false, true); (true, false); (true, true) ]
      done)
    [ 0; 1; 63; 4095; 1_000_000 ];
  checki "shared sentinel" Page_table.no_pte Page_table_ref.no_pte;
  (* Every packed PTE is non-negative, so the [-1] sentinel can never
     collide with a real entry. *)
  checkb "sentinel negative" true (Page_table.no_pte < 0)

(* --- Page table: flat vs boxed reference ---------------------------- *)

(* One operation applied to both tables; raised exceptions are part of
   the observable behaviour and must agree. *)
let pt_apply flat boxed (op, vp, arg) =
  let frame = arg land 0xFFFF in
  let perms = perms_of_bits arg in
  let attempt name f g =
    let r1 = try f (); None with Not_found -> Some () in
    let r2 = try g (); None with Not_found -> Some () in
    checkb (name ^ " raises alike") true (r1 = r2)
  in
  match op mod 8 with
  | 0 ->
    let accessed = arg land 8 <> 0 and dirty = arg land 16 <> 0 in
    Page_table.map flat ~vpage:vp ~frame ~perms ~accessed ~dirty ();
    Page_table_ref.map boxed ~vpage:vp ~frame ~perms ~accessed ~dirty ()
  | 1 ->
    Page_table.unmap flat vp;
    Page_table_ref.unmap boxed vp
  | 2 ->
    Page_table.set_present flat vp (arg land 1 = 1);
    Page_table_ref.set_present boxed vp (arg land 1 = 1)
  | 3 ->
    Page_table.set_ad flat vp ~write:(arg land 1 = 1);
    Page_table_ref.set_ad boxed vp ~write:(arg land 1 = 1)
  | 4 ->
    Page_table.clear_accessed flat vp;
    Page_table_ref.clear_accessed boxed vp
  | 5 ->
    Page_table.clear_dirty flat vp;
    Page_table_ref.clear_dirty boxed vp
  | 6 ->
    attempt "set_perms"
      (fun () -> Page_table.set_perms flat vp perms)
      (fun () -> Page_table_ref.set_perms boxed vp perms)
  | _ ->
    attempt "set_frame"
      (fun () -> Page_table.set_frame flat vp frame)
      (fun () -> Page_table_ref.set_frame boxed vp frame)

let pt_domain = 64

let pt_agree flat boxed =
  let ok = ref true in
  for vp = 0 to pt_domain - 1 do
    ok :=
      !ok
      && Page_table.find_packed flat vp = Page_table_ref.find_packed boxed vp
      && Page_table.mapped flat vp = Page_table_ref.mapped boxed vp
      && Page_table.present flat vp = Page_table_ref.present boxed vp
  done;
  !ok
  && Page_table.mapped_pages flat = Page_table_ref.mapped_pages boxed
  && Page_table.count_present flat = Page_table_ref.count_present boxed
  && Page_table.count_mapped flat = Page_table_ref.count_mapped boxed

let pt_property ops =
  let flat = Page_table.create () in
  let boxed = Page_table_ref.create () in
  List.for_all
    (fun (op, vp, arg) ->
      pt_apply flat boxed (op, vp mod pt_domain, arg);
      pt_agree flat boxed)
    ops

(* A scripted walk through every operation, including the Not_found
   paths and a remap of an existing PTE, checked op by op. *)
let test_pt_scripted () =
  let flat = Page_table.create () in
  let boxed = Page_table_ref.create () in
  let script =
    [
      (0, 3, 0b10111);    (* map vp3 rw accessed *)
      (0, 7, 0b00101);    (* map vp7 rx *)
      (3, 3, 1);          (* set_ad write *)
      (4, 3, 0);          (* clear_accessed *)
      (2, 7, 0);          (* set_present off *)
      (6, 9, 3);          (* set_perms on unmapped: Not_found both *)
      (7, 9, 12);         (* set_frame on unmapped: Not_found both *)
      (0, 3, 0b00010);    (* remap vp3 w-only, A/D cleared *)
      (5, 3, 0);          (* clear_dirty *)
      (1, 7, 0);          (* unmap vp7 *)
      (1, 7, 0);          (* double unmap is a no-op *)
      (6, 3, 7);          (* set_perms rwx *)
      (7, 3, 77);         (* set_frame *)
    ]
  in
  List.iteri
    (fun i step ->
      pt_apply flat boxed step;
      checkb (Printf.sprintf "agree after op %d" i) true (pt_agree flat boxed))
    script

(* --- TLB: flat vs boxed reference ----------------------------------- *)

(* Tiny capacity so random sequences exercise FIFO eviction and the
   stale-queue-entry skipping constantly. *)
let tlb_capacity = 8
let tlb_domain = 16

let tlb_apply flat boxed (op, vp, bits) =
  let dirty = bits land 8 <> 0 in
  let perms = perms_of_bits bits in
  match op mod 4 with
  | 0 ->
    Tlb.fill ~dirty flat vp perms;
    Tlb_ref.fill ~dirty boxed vp perms
  | 1 ->
    Tlb.fill_bits ~dirty flat vp (bits land 7);
    Tlb_ref.fill_bits ~dirty boxed vp (bits land 7)
  | 2 ->
    Tlb.flush_page flat vp;
    Tlb_ref.flush_page boxed vp
  | _ ->
    Tlb.flush flat;
    Tlb_ref.flush boxed

let tlb_agree flat boxed =
  let ok = ref (Tlb.size flat = Tlb_ref.size boxed) in
  for vp = 0 to tlb_domain - 1 do
    List.iter
      (fun k -> ok := !ok && Tlb.hit flat vp k = Tlb_ref.hit boxed vp k)
      [ Types.Read; Types.Write; Types.Exec ]
  done;
  !ok

let tlb_property ops =
  let flat = Tlb.create ~capacity:tlb_capacity () in
  let boxed = Tlb_ref.create ~capacity:tlb_capacity () in
  List.for_all
    (fun (op, vp, bits) ->
      tlb_apply flat boxed (op, vp mod tlb_domain, bits);
      tlb_agree flat boxed)
    ops

(* The rule the security model leans on: a write through an entry
   filled without dirty tracking must re-walk (miss), on both
   implementations. *)
let test_tlb_dirty_fill_rule () =
  let flat = Tlb.create ~capacity:4 () in
  let boxed = Tlb_ref.create ~capacity:4 () in
  Tlb.fill ~dirty:false flat 1 Types.perms_rw;
  Tlb_ref.fill ~dirty:false boxed 1 Types.perms_rw;
  checkb "flat read hits" true (Tlb.hit flat 1 Types.Read);
  checkb "flat write re-walks" false (Tlb.hit flat 1 Types.Write);
  checkb "agree" true (tlb_agree flat boxed);
  Tlb.fill ~dirty:true flat 1 Types.perms_rw;
  Tlb_ref.fill ~dirty:true boxed 1 Types.perms_rw;
  checkb "flat write hits after dirty fill" true (Tlb.hit flat 1 Types.Write);
  checkb "agree after dirty fill" true (tlb_agree flat boxed)

(* Overfill past capacity, refresh one entry (leaving a stale queue
   slot), then flush a page: the eviction order bookkeeping of the two
   implementations must stay in lockstep. *)
let test_tlb_eviction_scripted () =
  let flat = Tlb.create ~capacity:tlb_capacity () in
  let boxed = Tlb_ref.create ~capacity:tlb_capacity () in
  for vp = 0 to tlb_capacity - 1 do
    tlb_apply flat boxed (0, vp, 0b1011)
  done;
  tlb_apply flat boxed (0, 2, 0b1111);     (* refresh: stale queue entry *)
  checkb "full" true (Tlb.size flat = tlb_capacity && tlb_agree flat boxed);
  for vp = tlb_capacity to tlb_capacity + 3 do
    tlb_apply flat boxed (0, vp, 0b1011);  (* forces evictions *)
    checkb "agree during eviction" true (tlb_agree flat boxed)
  done;
  tlb_apply flat boxed (2, 5, 0);          (* flush_page *)
  checkb "agree after flush_page" true (tlb_agree flat boxed);
  tlb_apply flat boxed (3, 0, 0);          (* full flush *)
  checkb "empty" true (Tlb.size flat = 0 && tlb_agree flat boxed)

(* --- Flat int map vs Hashtbl ---------------------------------------- *)

let flat_domain = 128

let flat_property ops =
  let flat = Flat.create () in
  let oracle = Hashtbl.create 16 in
  List.for_all
    (fun (op, k, v) ->
      let k = k mod flat_domain and v = v land 0xFFFFF in
      (match op mod 5 with
      | 0 | 1 | 2 ->
        Flat.set flat k v;
        Hashtbl.replace oracle k v
      | 3 ->
        Flat.remove flat k;
        Hashtbl.remove oracle k
      | _ ->
        Flat.clear flat;
        Hashtbl.reset oracle);
      Flat.length flat = Hashtbl.length oracle
      && (let ok = ref true in
          for k = 0 to flat_domain - 1 do
            let expect =
              match Hashtbl.find_opt oracle k with
              | Some v -> v
              | None -> Flat.absent
            in
            ok :=
              !ok
              && Flat.find flat k = expect
              && Flat.mem flat k = Hashtbl.mem oracle k
              && Flat.find_default flat k (-7)
                 = (if expect = Flat.absent then -7 else expect)
          done;
          !ok)
      && Flat.fold (fun _ v acc -> acc + v) flat 0
         = Hashtbl.fold (fun _ v acc -> acc + v) oracle 0)
    ops

let test_flat_negative_key_rejected () =
  let flat = Flat.create () in
  checkb "set rejects negative" true
    (try Flat.set flat (-1) 0; false with Invalid_argument _ -> true)

let test_flat_negative_value_rejected () =
  let flat = Flat.create () in
  Helpers.check_invalid_arg ~naming:"negative value" (fun () ->
      Flat.set flat 3 Flat.absent);
  checkb "nothing bound" true (Flat.length flat = 0 && not (Flat.mem flat 3))

(* --- Flat windows away from 0 ---------------------------------------- *)

(* Keys come from [base, base + span), with [base] up to 2^20 and the
   first key in the middle, so the window starts far from 0 and grows
   downward as well as upward.  The map, and its codec round trip, must
   agree with a Hashtbl on every key in and just around the range, and
   fold must visit keys in ascending order. *)
let window_gen =
  QCheck2.Gen.(
    let* base = int_range 0 (1 lsl 20) in
    let* span = int_range 1 4096 in
    let* ops =
      list_size (int_range 1 200)
        (triple (int_range 0 3) (int_range 0 (span - 1)) (int_range 0 0xFFFFF))
    in
    return (base, span, ops))

let window_print (base, span, ops) =
  Printf.sprintf "base=%d span=%d ops=%d" base span (List.length ops)

let window_property (base, span, ops) =
  let flat = Flat.create () in
  let oracle = Hashtbl.create 64 in
  let set k v =
    Flat.set flat k v;
    Hashtbl.replace oracle k v
  in
  set (base + (span / 2)) 0;
  List.iter
    (fun (op, off, v) ->
      let k = base + off in
      if op < 3 then set k v
      else begin
        Flat.remove flat k;
        Hashtbl.remove oracle k
      end)
    ops;
  let agrees t =
    Flat.length t = Hashtbl.length oracle
    &&
    let ok = ref true in
    for k = base - 1 to base + span do
      let expect =
        Option.value (Hashtbl.find_opt oracle k) ~default:Flat.absent
      in
      ok :=
        !ok
        && Flat.find t k = expect
        && Flat.mem t k = (expect <> Flat.absent)
        && Flat.find_default t k (-7) = if expect = Flat.absent then -7 else expect
    done;
    !ok
  in
  let visited = List.rev (Flat.fold (fun k _ acc -> k :: acc) flat []) in
  let b = Buffer.create 256 in
  Snapshot.Codec.write_flat b flat;
  let copy =
    Snapshot.Codec.read_flat (Snapshot.Codec.R.of_string (Buffer.contents b))
  in
  agrees flat
  && visited = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) oracle [])
  && Flat.export_state copy = Flat.export_state flat
  && agrees copy

(* --- EPCM reverse index, one window per enclave ----------------------- *)

(* Three enclaves bind and release frames over one shared vpage range
   (harder than real, disjoint ranges); an op may also tear an enclave
   down the way [Kernel.release_proc] does.  After every op each
   (enclave id, vpage) pair, id 4 (never bound) included, resolves
   exactly as an oracle keyed by the pair says: a page is never visible
   under another enclave's id, before or after release.  Halfway
   through, the EPC goes through a Marshal round trip, as a world
   snapshot does, and the second half runs on the copy. *)
let epc_frames = 48
let epc_vpages = 32
let epc_base = 0x10000

let epc_property ops =
  let epc = ref (Epc.create ~frames:epc_frames) in
  let oracle = Hashtbl.create 64 in
  let release_frame key frame =
    Epc.release !epc frame;
    Hashtbl.remove oracle key
  in
  let apply (op, eid, off) =
    let epc = !epc in
    let eid = 1 + (eid mod 3) and vpage = epc_base + (off mod epc_vpages) in
    match op mod 8 with
    | 0 | 1 | 2 | 3 ->
      if not (Hashtbl.mem oracle (eid, vpage)) then begin
        let frame = Epc.alloc epc in
        if frame >= 0 then begin
          Epc.bind epc ~frame ~enclave_id:eid ~vpage ~perms:Types.perms_rw
            ~ptype:Types.Pt_reg ~pending:false;
          Hashtbl.replace oracle (eid, vpage) frame
        end
      end
    | 4 | 5 | 6 -> (
      match Hashtbl.find_opt oracle (eid, vpage) with
      | Some frame -> release_frame (eid, vpage) frame
      | None -> ())
    | _ ->
      List.iter
        (fun frame -> release_frame (eid, Epc.vpage (Epc.entry epc frame)) frame)
        (Epc.frames_of_enclave epc ~enclave_id:eid);
      Epc.drop_enclave epc ~enclave_id:eid
  in
  let agrees () =
    let ok = ref true in
    for eid = 1 to 4 do
      for vpage = epc_base - 1 to epc_base + epc_vpages do
        let expect =
          Option.value (Hashtbl.find_opt oracle (eid, vpage)) ~default:(-1)
        in
        ok := !ok && Epc.frame_of_packed !epc ~enclave_id:eid ~vpage = expect
      done
    done;
    !ok && Epc.free_frames !epc = epc_frames - Hashtbl.length oracle
  in
  let half = List.length ops / 2 in
  List.for_all
    (fun (i, op) ->
      if i = half then epc := Marshal.from_string (Marshal.to_string !epc []) 0;
      apply op;
      agrees ())
    (List.mapi (fun i op -> (i, op)) ops)

(* --- EPCM entries: packed ints against the record they replaced ------ *)

(* The mutable record an EPCM entry used to be, and its semantics:
   [bind] sets every field, a setter one, and [release] clears all but
   the perms and the type. *)
type model_entry = {
  mutable m_valid : bool;
  mutable m_id : int;
  mutable m_vpage : int;
  mutable m_perms : Types.perms;
  mutable m_ptype : Types.page_type;
  mutable m_pending : bool;
  mutable m_modified : bool;
  mutable m_blocked : bool;
}

let epcm_frames = 16

let ptype_of i =
  match i mod 4 with
  | 0 -> Types.Pt_reg | 1 -> Types.Pt_tcs | 2 -> Types.Pt_trim | _ -> Types.Pt_va

(* The snapshot probe's flags word, from the record fields, with the
   probe's own type codes. *)
let model_flags m =
  (if m.m_valid then 1 else 0)
  lor (if m.m_pending then 2 else 0)
  lor (if m.m_modified then 4 else 0)
  lor (if m.m_blocked then 8 else 0)
  lor (Types.perms_bits m.m_perms lsl 4)
  lor ((match m.m_ptype with
       | Types.Pt_reg -> 0 | Types.Pt_tcs -> 1 | Types.Pt_trim -> 2 | Types.Pt_va -> 3)
      lsl 8)

(* Random binds (enclave pages, VA pages, the largest id and vpage an
   entry holds), out-of-range binds that must raise [Sgx_error] and
   leave the entry alone, per-field setters on any frame, and releases.
   After every op each frame decodes to its model record, the reverse
   index and [frames_of_enclave] agree with the model, and so does the
   free count. *)
let epcm_property ops =
  let epc = Epc.create ~frames:epcm_frames in
  let model =
    Array.init epcm_frames (fun _ ->
        {
          m_valid = false;
          m_id = -1;
          m_vpage = -1;
          m_perms = Types.perms_ro;
          m_ptype = Types.Pt_reg;
          m_pending = false;
          m_modified = false;
          m_blocked = false;
        })
  in
  let in_use = ref 0 in
  let ok = ref true in
  let bind ?(track_reverse = true) f ~id ~vpage ~perms ~ptype ~pending =
    Epc.bind ~track_reverse epc ~frame:f ~enclave_id:id ~vpage ~perms ~ptype ~pending;
    let m = model.(f) in
    m.m_valid <- true;
    m.m_id <- id;
    m.m_vpage <- vpage;
    m.m_perms <- perms;
    m.m_ptype <- ptype;
    m.m_pending <- pending;
    m.m_modified <- false;
    m.m_blocked <- false
  in
  let release f =
    Epc.release epc f;
    decr in_use;
    let m = model.(f) in
    m.m_valid <- false;
    m.m_id <- -1;
    m.m_vpage <- -1;
    m.m_pending <- false;
    m.m_modified <- false;
    m.m_blocked <- false
  in
  let alloc () =
    let f = Epc.alloc epc in
    if f >= 0 then incr in_use;
    f
  in
  let apply (op, a, b) =
    let f = a mod epcm_frames and m = model.(a mod epcm_frames) in
    let perms = perms_of_bits b and ptype = ptype_of (b lsr 3) in
    match op mod 10 with
    | 0 | 1 ->
      (* An enclave page is bound to at most one frame, as EADD, EAUG
         and ELDU ensure. *)
      let id = 1 + (a mod 3) and vpage = epc_base + (b mod epc_vpages) in
      let taken = Array.exists (fun m -> m.m_valid && m.m_id = id && m.m_vpage = vpage) model in
      let fr = if taken then -1 else alloc () in
      if fr >= 0 then bind fr ~id ~vpage ~perms ~ptype ~pending:(b land 0x100 <> 0)
    | 2 ->
      let fr = alloc () in
      if fr >= 0 then
        if a land 1 = 0 then
          bind ~track_reverse:false fr ~id:(-1) ~vpage:(-1) ~perms:Types.perms_ro
            ~ptype:Types.Pt_va ~pending:false
        else
          bind ~track_reverse:false fr ~id:Epc.max_enclave_id ~vpage:Epc.max_vpage
            ~perms ~ptype ~pending:true
    | 3 ->
      let fr = alloc () in
      if fr >= 0 then begin
        let id, vpage =
          match a mod 4 with
          | 0 -> (Epc.max_enclave_id + 1 + b, epc_base)
          | 1 -> (1, Epc.max_vpage + 1 + b)
          | 2 -> (-2 - b, epc_base)
          | _ -> (1, -2 - b)
        in
        let before = Epc.entry epc fr in
        (match
           Epc.bind epc ~frame:fr ~enclave_id:id ~vpage ~perms ~ptype ~pending:false
         with
        | () -> ok := false
        | exception Types.Sgx_error _ -> ());
        ok := !ok && Epc.entry epc fr = before;
        release fr
      end
    | 4 -> if m.m_valid then release f
    | 5 ->
      Epc.set_pending epc f (b land 1 = 1);
      m.m_pending <- b land 1 = 1
    | 6 ->
      Epc.set_modified epc f (b land 1 = 1);
      m.m_modified <- b land 1 = 1
    | 7 ->
      Epc.set_blocked epc f (b land 1 = 1);
      m.m_blocked <- b land 1 = 1
    | 8 ->
      Epc.set_perms epc f perms;
      m.m_perms <- perms
    | _ ->
      Epc.set_ptype epc f ptype;
      m.m_ptype <- ptype
  in
  let agrees () =
    let fine = ref (Epc.free_frames epc = epcm_frames - !in_use) in
    Array.iteri
      (fun f m ->
        let e = Epc.entry epc f in
        fine :=
          !fine && e >= 0
          && Epc.valid e = m.m_valid
          && Epc.pending e = m.m_pending
          && Epc.modified e = m.m_modified
          && Epc.blocked e = m.m_blocked
          && Epc.perms e = m.m_perms
          && Epc.perm_bits e = Types.perms_bits m.m_perms
          && Epc.ptype e = m.m_ptype
          && Epc.enclave_id e = m.m_id
          && Epc.vpage e = m.m_vpage
          && Epc.flags e = model_flags m;
        if m.m_valid && m.m_id >= 1 && m.m_id <= 3 then
          fine := !fine && Epc.frame_of_packed epc ~enclave_id:m.m_id ~vpage:m.m_vpage = f)
      model;
    for id = 1 to 3 do
      let expect = ref [] in
      Array.iteri (fun f m -> if m.m_valid && m.m_id = id then expect := f :: !expect) model;
      fine := !fine && Epc.frames_of_enclave epc ~enclave_id:id = List.rev !expect
    done;
    !fine
  in
  List.for_all
    (fun op ->
      apply op;
      !ok && agrees ())
    ops

(* Three words a frame: the packed entry, the payload slot and the
   free-stack slot, and a bit of the in-use set (12.03 with a ten-word
   entry record per frame). *)
let test_epc_words_per_frame () =
  let frames = 2_048 in
  let per_frame =
    float_of_int (Obj.reachable_words (Obj.repr (Epc.create ~frames)))
    /. float_of_int frames
  in
  checkb (Printf.sprintf "%.2f words per frame <= 3.1" per_frame) true
    (per_frame <= 3.1)

(* A page table is a Flat window, so vpages mapped in descending order
   grow it toward the key: 512 pages take 628 slots either way (1,024
   when every grow doubled; the page table's own window grew only
   upward and reached 16,384). *)
let test_pt_descending_map_stays_tight () =
  let pt = Page_table.create () in
  for i = 511 downto 0 do
    Page_table.map pt ~vpage:(epc_base + i) ~frame:i ~perms:Types.perms_rw ()
  done;
  let slots = Array.length (Flat.export_state pt).Flat.raw_vals in
  checkb (Printf.sprintf "%d slots <= 1152" slots) true (slots <= 1_152);
  checki "mapped" 512 (Page_table.count_mapped pt);
  checki "lowest page" epc_base (List.hd (Page_table.mapped_pages pt))

(* A window filled in ascending order grows by a quarter, not by
   doubling: 512 keys from 65,536 take 628 slots (1,024 when every grow
   doubled). *)
let test_flat_ascending_fill_stays_tight () =
  let flat = Flat.create () in
  for i = 0 to 511 do
    Flat.set flat (65_536 + i) i
  done;
  let slots = Array.length (Flat.export_state flat).Flat.raw_vals in
  checkb (Printf.sprintf "%d slots <= 640" slots) true (slots <= 640);
  checki "bound" 512 (Flat.length flat)

(* --- QCheck registration -------------------------------------------- *)

let op_list ~ops ~arg_hi =
  QCheck2.Gen.(
    list_size (int_range 1 120)
      (triple (int_range 0 (ops - 1)) (int_range 0 255) (int_range 0 arg_hi)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      QCheck2.Test.make
        ~name:"page table agrees with boxed oracle on random ops" ~count:300
        (op_list ~ops:8 ~arg_hi:0xFFFF) pt_property;
      QCheck2.Test.make
        ~name:"tlb agrees with boxed oracle on random ops" ~count:300
        (op_list ~ops:4 ~arg_hi:15) tlb_property;
      QCheck2.Test.make
        ~name:"flat map agrees with Hashtbl on random ops" ~count:300
        (op_list ~ops:5 ~arg_hi:0xFFFFF) flat_property;
      QCheck2.Test.make
        ~name:"flat window far from 0 agrees with Hashtbl, folds ascending"
        ~count:300 ~print:window_print window_gen window_property;
      QCheck2.Test.make
        ~name:"epcm index isolates enclaves across bind/release" ~count:300
        (op_list ~ops:8 ~arg_hi:(epc_vpages - 1)) epc_property;
      QCheck2.Test.make
        ~name:"packed epcm entries agree with the record model" ~count:300
        (op_list ~ops:10 ~arg_hi:0xFFFF) epcm_property;
    ]

let suite =
  [
    ("packed PTE roundtrip, both encodings", `Quick, test_pack_roundtrip);
    ("page table scripted differential", `Quick, test_pt_scripted);
    ("tlb dirty-fill re-walk rule", `Quick, test_tlb_dirty_fill_rule);
    ("tlb eviction order differential", `Quick, test_tlb_eviction_scripted);
    ("flat map negative keys", `Quick, test_flat_negative_key_rejected);
    ("flat map negative values", `Quick, test_flat_negative_value_rejected);
  ]
  @ qcheck_cases
  @ [
      ("epc words per frame", `Quick, test_epc_words_per_frame);
      ("page table descending map stays tight", `Quick,
       test_pt_descending_map_stays_tight);
      ("flat ascending fill stays tight", `Quick, test_flat_ascending_fill_stays_tight);
    ]
