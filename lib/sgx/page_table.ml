(* Dense flat-array page table.

   One PTE is one int: bit 0 present, bits 1-3 permissions (r/w/x),
   bit 4 accessed, bit 5 dirty, bits 6+ the frame number.  A missing
   PTE is the sentinel [no_pte] (-1), which is distinguishable from
   every packed PTE because packed values are non-negative.

   The store is a dense array over a contiguous vpage window
   [base, base + Array.length tbl): enclave regions are contiguous, so
   the window stays tight.  The window grows (with slack) when a
   mapping lands outside it. *)

let no_pte = -1

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

type t = {
  mutable base : Types.vpage; (* vpage of slot 0 *)
  mutable tbl : int array;    (* packed PTEs; [no_pte] when unmapped *)
  mutable entries : int;      (* slots holding a PTE *)
}

let create () = { base = 0; tbl = [||]; entries = 0 }

let slack = 64

(* Grow the window to cover [vp], at least doubling so repeated
   extensions amortize. *)
let grow t vp =
  let old_len = Array.length t.tbl in
  if old_len = 0 then begin
    t.base <- max 0 (vp - slack);
    t.tbl <- Array.make (2 * slack) no_pte
  end
  else begin
    let lo = min t.base (max 0 (vp - slack)) in
    let hi = max (t.base + old_len) (vp + 1 + slack) in
    let len = max (hi - lo) (2 * old_len) in
    let tbl = Array.make len no_pte in
    Array.blit t.tbl 0 tbl (t.base - lo) old_len;
    t.base <- lo;
    t.tbl <- tbl
  end

let[@inline] find_packed t vp =
  let i = vp - t.base in
  if i >= 0 && i < Array.length t.tbl then Array.unsafe_get t.tbl i else no_pte

let map_packed t ~vpage pte =
  if vpage < 0 then invalid_arg "Page_table.map: negative vpage";
  if pte < 0 then invalid_arg "Page_table.map: negative frame";
  if vpage - t.base < 0 || vpage - t.base >= Array.length t.tbl then grow t vpage;
  let i = vpage - t.base in
  if t.tbl.(i) = no_pte then t.entries <- t.entries + 1;
  t.tbl.(i) <- pte

let map t ~vpage ~frame ~perms ?(accessed = false) ?(dirty = false) () =
  map_packed t ~vpage (pack ~frame ~perms ~accessed ~dirty)

let unmap t vpage =
  let i = vpage - t.base in
  if i >= 0 && i < Array.length t.tbl && t.tbl.(i) <> no_pte then begin
    t.tbl.(i) <- no_pte;
    t.entries <- t.entries - 1
  end

let mapped t vpage = find_packed t vpage <> no_pte

let present t vpage =
  let p = find_packed t vpage in
  p >= 0 && p land b_present <> 0

let set_perms t vpage perms =
  let p = find_packed t vpage in
  if p = no_pte then raise Not_found;
  t.tbl.(vpage - t.base) <-
    p land lnot 0b1110 lor (Types.perms_bits perms lsl 1)

let set_present t vpage on =
  let p = find_packed t vpage in
  if p <> no_pte then
    t.tbl.(vpage - t.base) <-
      (if on then p lor b_present else p land lnot b_present)

let set_frame t vpage frame =
  let p = find_packed t vpage in
  if p = no_pte then raise Not_found;
  t.tbl.(vpage - t.base) <-
    p land ((1 lsl frame_shift) - 1) lor (frame lsl frame_shift)

(* The legacy walk's accessed/dirty writeback: one store, no record. *)
let set_ad t vpage ~write =
  let p = find_packed t vpage in
  if p <> no_pte then
    t.tbl.(vpage - t.base) <-
      p lor (b_accessed lor if write then b_dirty else 0)

let clear_accessed t vpage =
  let p = find_packed t vpage in
  if p <> no_pte then t.tbl.(vpage - t.base) <- p land lnot b_accessed

let clear_dirty t vpage =
  let p = find_packed t vpage in
  if p <> no_pte then t.tbl.(vpage - t.base) <- p land lnot b_dirty

(* Ascending window scan: already sorted, no polymorphic compare. *)
let mapped_pages t =
  let acc = ref [] in
  for i = Array.length t.tbl - 1 downto 0 do
    if t.tbl.(i) <> no_pte then acc := (t.base + i) :: !acc
  done;
  !acc

let count_present t =
  let n = ref 0 in
  for i = 0 to Array.length t.tbl - 1 do
    let p = t.tbl.(i) in
    if p <> no_pte && p land b_present <> 0 then Stdlib.incr n
  done;
  !n

let count_mapped t = t.entries

(* Raw snapshot: window base + packed PTE array verbatim.  The window
   geometry (base, slack, length) affects nothing observable except
   when the next [grow] fires, but the probe digest hashes the packed
   array, so it is preserved as-is. *)
type raw = { raw_base : int; raw_tbl : int array; raw_entries : int }

let export_state t =
  { raw_base = t.base; raw_tbl = Array.copy t.tbl; raw_entries = t.entries }

let import_state r =
  if r.raw_base < 0 then invalid_arg "Page_table.import_state: negative base";
  if r.raw_entries < 0 || r.raw_entries > Array.length r.raw_tbl then
    invalid_arg "Page_table.import_state: entry count out of range";
  { base = r.raw_base; tbl = Array.copy r.raw_tbl; entries = r.raw_entries }
