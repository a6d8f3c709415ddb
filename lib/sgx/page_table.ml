(* Flat page table: a {!Flat} window map from vpage to packed PTE.

   One PTE is one int: bit 0 present, bits 1-3 permissions (r/w/x),
   bit 4 accessed, bit 5 dirty, bits 6+ the frame number.  Packed
   values are non-negative, so a missing PTE is the window's [absent]
   (-1), which is [no_pte]. *)

type t = Flat.t

let no_pte = Flat.absent

let b_present = 0x1
let b_accessed = 0x10
let b_dirty = 0x20
let frame_shift = 6

(* Packed-PTE accessors; pure functions of the packed int. *)
let p_present p = p land b_present <> 0
let p_accessed p = p land b_accessed <> 0
let p_dirty p = p land b_dirty <> 0
let p_rwx p = (p lsr 1) land 7
let p_frame p = p asr frame_shift
let p_allows p kind = Types.bits_allow (p lsr 1) kind
let p_perms p = Types.perms_of_bits (p_rwx p)

let pack ~frame ~perms ~accessed ~dirty =
  b_present
  lor (Types.perms_bits perms lsl 1)
  lor (if accessed then b_accessed else 0)
  lor (if dirty then b_dirty else 0)
  lor (frame lsl frame_shift)

let create = Flat.create
let find_packed = Flat.find

let map_packed t ~vpage pte =
  if vpage < 0 then invalid_arg "Page_table.map: negative vpage";
  if pte < 0 then invalid_arg "Page_table.map: negative frame";
  Flat.set t vpage pte

let map t ~vpage ~frame ~perms ?(accessed = false) ?(dirty = false) () =
  map_packed t ~vpage (pack ~frame ~perms ~accessed ~dirty)

let unmap = Flat.remove
let mapped = Flat.mem

let present t vpage =
  let p = find_packed t vpage in
  p >= 0 && p land b_present <> 0

let set_perms t vpage perms =
  let p = find_packed t vpage in
  if p = no_pte then raise Not_found;
  Flat.set t vpage (p land lnot 0b1110 lor (Types.perms_bits perms lsl 1))

let set_present t vpage on =
  let p = find_packed t vpage in
  if p <> no_pte then
    Flat.set t vpage (if on then p lor b_present else p land lnot b_present)

let set_frame t vpage frame =
  let p = find_packed t vpage in
  if p = no_pte then raise Not_found;
  if frame < 0 then invalid_arg "Page_table.set_frame: negative frame";
  Flat.set t vpage (p land ((1 lsl frame_shift) - 1) lor (frame lsl frame_shift))

(* The legacy walk's accessed/dirty writeback: one load, one store. *)
let set_ad t vpage ~write =
  let p = find_packed t vpage in
  if p <> no_pte then Flat.set t vpage (p lor b_accessed lor if write then b_dirty else 0)

let clear_accessed t vpage =
  let p = find_packed t vpage in
  if p <> no_pte then Flat.set t vpage (p land lnot b_accessed)

let clear_dirty t vpage =
  let p = find_packed t vpage in
  if p <> no_pte then Flat.set t vpage (p land lnot b_dirty)

let mapped_pages t = List.rev (Flat.fold (fun vp _ acc -> vp :: acc) t [])

let count_present t = Flat.fold (fun _ p n -> if p_present p then n + 1 else n) t 0
let count_mapped = Flat.length
