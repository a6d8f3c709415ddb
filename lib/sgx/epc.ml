(* EPCM entry: one packed int per frame.  Bit 0 valid, 1 pending, 2
   modified, 3 blocked, bits 4-6 perms (r=1, w=2, x=4), bits 8-9 the
   page type; these ten bits are the snapshot probe's flags word.  Bits
   10-41 hold vpage + 1 and bits 42-61 enclave id + 1, so the unowned
   -1 of a VA page or a released frame packs to zero and every entry is
   non-negative. *)

let b_valid = 0x1
let b_pending = 0x2
let b_modified = 0x4
let b_blocked = 0x8
let perms_shift = 4
let ptype_shift = 8
let vpage_shift = 10
let vpage_bits = 32
let id_shift = vpage_shift + vpage_bits
let id_bits = 20
let flags_mask = (1 lsl vpage_shift) - 1

let max_vpage = (1 lsl vpage_bits) - 2
let max_enclave_id = (1 lsl id_bits) - 2

let ptype_code = function
  | Types.Pt_reg -> 0 | Types.Pt_tcs -> 1 | Types.Pt_trim -> 2 | Types.Pt_va -> 3

let ptype_of_code = function
  | 0 -> Types.Pt_reg | 1 -> Types.Pt_tcs | 2 -> Types.Pt_trim | _ -> Types.Pt_va

(* Pure decoders of a packed entry. *)
let valid e = e land b_valid <> 0
let pending e = e land b_pending <> 0
let modified e = e land b_modified <> 0
let blocked e = e land b_blocked <> 0
let perm_bits e = (e lsr perms_shift) land 7
let perms e = Types.perms_of_bits (perm_bits e)
let ptype e = ptype_of_code ((e lsr ptype_shift) land 3)
let vpage e = ((e lsr vpage_shift) land ((1 lsl vpage_bits) - 1)) - 1
let enclave_id e = (e lsr id_shift) - 1
let flags e = e land flags_mask

(* A frame never bound: unowned, read-only, regular. *)
let blank = Types.perms_bits Types.perms_ro lsl perms_shift

(* The reverse index (enclave page -> frame) is one {!Flat} window per
   enclave, over that enclave's contiguous vpage range, in an array
   indexed by enclave id.  Ids count up from 1, so the array costs an
   empty window (five words) per enclave ever created; [drop_enclave]
   swaps a released enclave's window for an empty one.  No two ids
   share a window, not even an empty one, so a window restored from a
   snapshot is as private as the one captured.  The free pool is an
   int-array stack that pops frames 0, 1, 2, ... initially and is LIFO
   on release, exactly like the old cons-list free list.  A bitset
   marks the frames taken off it, so a frame released twice is caught
   instead of landing on the stack twice.

   Free frames all hold the one shared [zero] payload, so a release
   allocates nothing.  The instructions that bind a frame either install
   the page's own payload (EADD, ELDU, EACCEPTCOPY) or a fresh zero page
   (EAUG), so the shared one is never written through. *)

type t = {
  epcm : int array;           (* frame -> packed entry *)
  contents : Page_data.t array;
  zero : Page_data.t;
  free : int array;           (* free frames; top of stack at free_count-1 *)
  mutable free_count : int;
  in_use : Bytes.t;           (* bit per frame: taken by [alloc] *)
  mutable reverse : Flat.t array;  (* enclave id -> vpage -> frame *)
}

let windows n = Array.init n (fun _ -> Flat.create ())

let create ~frames =
  if frames <= 0 then invalid_arg "Epc.create: frames must be positive";
  let zero = Page_data.create () in
  {
    epcm = Array.make frames blank;
    contents = Array.make frames zero;
    zero;
    (* Arranged so the first pops yield frames 0, 1, 2, ... *)
    free = Array.init frames (fun i -> frames - 1 - i);
    free_count = frames;
    in_use = Bytes.make ((frames + 7) / 8) '\000';
    reverse = windows 8;
  }

let total_frames t = Array.length t.epcm
let free_frames t = t.free_count

let in_use t f = Char.code (Bytes.get t.in_use (f lsr 3)) land (1 lsl (f land 7)) <> 0

let mark t f on =
  let b = Char.code (Bytes.get t.in_use (f lsr 3)) and bit = 1 lsl (f land 7) in
  Bytes.set t.in_use (f lsr 3) (Char.chr (if on then b lor bit else b land lnot bit))

let alloc t =
  if t.free_count = 0 then -1
  else begin
    let f = t.free.(t.free_count - 1) in
    t.free_count <- t.free_count - 1;
    mark t f true;
    f
  end

let[@inline] entry t frame = t.epcm.(frame)
let data t frame = t.contents.(frame)
let set_data t frame d = t.contents.(frame) <- d

let set_bit t frame bit on =
  let e = t.epcm.(frame) in
  t.epcm.(frame) <- (if on then e lor bit else e land lnot bit)

let set_pending t frame on = set_bit t frame b_pending on
let set_modified t frame on = set_bit t frame b_modified on
let set_blocked t frame on = set_bit t frame b_blocked on

let set_perms t frame p =
  t.epcm.(frame) <-
    t.epcm.(frame) land lnot (7 lsl perms_shift)
    lor (Types.perms_bits p lsl perms_shift)

let set_ptype t frame pt =
  t.epcm.(frame) <-
    t.epcm.(frame) land lnot (3 lsl ptype_shift) lor (ptype_code pt lsl ptype_shift)

let release t frame =
  if not (in_use t frame) then Types.sgx_errorf "EPC: frame %d is already free" frame;
  mark t frame false;
  let e = t.epcm.(frame) in
  let enclave_id = enclave_id e in
  (* VA pages are bound with [track_reverse:false] and a negative
     enclave id; they have no reverse entry to drop. *)
  if valid e && enclave_id >= 0 && enclave_id < Array.length t.reverse then
    Flat.remove t.reverse.(enclave_id) (vpage e);
  (* A released frame keeps its last perms and type. *)
  t.epcm.(frame) <- e land ((7 lsl perms_shift) lor (3 lsl ptype_shift));
  t.contents.(frame) <- t.zero;
  t.free.(t.free_count) <- frame;
  t.free_count <- t.free_count + 1

let frame_of_packed t ~enclave_id ~vpage =
  if enclave_id < 0 || enclave_id >= Array.length t.reverse then -1
  else Flat.find (Array.unsafe_get t.reverse enclave_id) vpage

let frame_of t ~enclave_id ~vpage =
  let f = frame_of_packed t ~enclave_id ~vpage in
  if f >= 0 then Some f else None

let frames_of_enclave t ~enclave_id:id =
  let acc = ref [] in
  for f = Array.length t.epcm - 1 downto 0 do
    let e = t.epcm.(f) in
    if valid e && enclave_id e = id then acc := f :: !acc
  done;
  !acc

let bind ?(track_reverse = true) t ~frame ~enclave_id ~vpage ~perms ~ptype ~pending =
  if valid t.epcm.(frame) then Types.sgx_errorf "EPCM: frame %d already bound" frame;
  if (enclave_id + 1) lsr id_bits <> 0 || (vpage + 1) lsr vpage_bits <> 0 then
    Types.sgx_errorf "EPCM: enclave %d / page 0x%x out of range" enclave_id vpage;
  t.epcm.(frame) <-
    b_valid
    lor (if pending then b_pending else 0)
    lor (Types.perms_bits perms lsl perms_shift)
    lor (ptype_code ptype lsl ptype_shift)
    lor ((vpage + 1) lsl vpage_shift)
    lor ((enclave_id + 1) lsl id_shift);
  if track_reverse then begin
    let n = Array.length t.reverse in
    if enclave_id >= n then
      t.reverse <-
        Array.append t.reverse (windows (max n (enclave_id + 1 - n)));
    Flat.set t.reverse.(enclave_id) vpage frame
  end

(* Free frames share [zero]; every bound frame holds its own payload. *)
let footprint t acc =
  let module W = Metrics.Words in
  List.iter (W.add_block acc W.Epcm) [ Obj.repr t; Obj.repr t.epcm; Obj.repr t.free ];
  W.add_block acc W.Epcm t.in_use;
  W.add_block acc W.Epc_payloads t.contents;
  W.once acc ~cls:W.Epc_payloads t.zero ~words:(W.block t.zero);
  Array.iter (fun d -> if d != t.zero then W.add_block acc W.Epc_payloads d) t.contents;
  W.add_block acc W.Flat_windows t.reverse;
  Array.iter (fun w -> Flat.footprint w acc) t.reverse

let drop_enclave t ~enclave_id =
  if enclave_id >= 0 && enclave_id < Array.length t.reverse then
    t.reverse.(enclave_id) <- Flat.create ()
