(* Flat TLB: a fixed-capacity open-addressing table (vpage -> packed
   permission bits) plus an int ring buffer carrying FIFO fill order.

   Replaces the Hashtbl + Queue representation with two invariants kept
   bit-compatible with it:

   - [flush] is O(1): a generation counter stamps every slot, so
     bumping it empties the table without touching the arrays.  SGX
     flushes on every enclave transition (4+ flushes per fault), so a
     memset-per-flush would dominate.

   - The ring replicates the old Queue exactly, stale entries
     included: a page removed by [flush_page] and refilled has two ring
     entries and is evicted at its *original* (older) position.
     Compacting stale entries would change eviction order and break
     golden trace digests.

   Value packing: bits 0-2 r/w/x, bit 3 "filled with dirty tracking"
   (a write through a non-dirty-filled entry must re-walk, as x86 does
   to set the PTE dirty bit). *)

type t = {
  cap : int;
  mask : int;               (* table size - 1; size = pow2 >= 4*cap *)
  keys : int array;         (* vpage, [empty] or [tomb] *)
  vals : int array;
  gens : int array;         (* slot is dead unless gens.(s) = gen *)
  mutable gen : int;
  mutable live : int;
  mutable tombs : int;
  scratch_k : int array;    (* rebuild buffers, capacity [cap] *)
  scratch_v : int array;
  mutable ring : int array; (* FIFO of filled vpages, may hold stale entries *)
  mutable head : int;
  mutable tail : int;       (* entries = ring.(head..tail-1 mod len) *)
}

let empty = -1
let tomb = -2

let b_dirty_filled = 8

let rec pow2 n i = if i >= n then i else pow2 n (i * 2)

let create ?(capacity = 1536) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  let size = pow2 (4 * capacity) 16 in
  {
    cap = capacity;
    mask = size - 1;
    keys = Array.make size empty;
    vals = Array.make size 0;
    gens = Array.make size (-1);
    gen = 0;
    live = 0;
    tombs = 0;
    scratch_k = Array.make capacity 0;
    scratch_v = Array.make capacity 0;
    ring = Array.make (pow2 (2 * capacity) 16) 0;
    head = 0;
    tail = 0;
  }

let[@inline] hash t k = ((k * 0x2545F4914F6CDD1D) lxor (k lsr 13)) land t.mask

(* Slot of a live entry for [k], or -1. *)
let lookup t k =
  let keys = t.keys and gens = t.gens and mask = t.mask and gen = t.gen in
  let i = ref (hash t k) in
  let res = ref (-2) in
  while !res = -2 do
    let s = !i in
    if Array.unsafe_get gens s <> gen || Array.unsafe_get keys s = empty then
      res := -1
    else if Array.unsafe_get keys s = k then res := s
    else i := (s + 1) land mask
  done;
  !res

let remove_slot t s =
  t.keys.(s) <- tomb;
  t.live <- t.live - 1;
  t.tombs <- t.tombs + 1

(* Reinsert the live entries into a fresh generation, retiring
   tombstones.  Bounded by [cap] entries; the set is order-free so
   reinsertion order cannot matter. *)
let rebuild t =
  let n = ref 0 in
  let keys = t.keys and gens = t.gens and gen = t.gen in
  for s = 0 to t.mask do
    if Array.unsafe_get gens s = gen && Array.unsafe_get keys s >= 0 then begin
      t.scratch_k.(!n) <- keys.(s);
      t.scratch_v.(!n) <- t.vals.(s);
      Stdlib.incr n
    end
  done;
  t.gen <- t.gen + 1;
  t.tombs <- 0;
  let gen' = t.gen and mask = t.mask in
  for j = 0 to !n - 1 do
    let k = t.scratch_k.(j) in
    let i = ref (hash t k) in
    let continue = ref true in
    while !continue do
      let s = !i in
      if t.gens.(s) <> gen' || t.keys.(s) = empty then begin
        t.keys.(s) <- k;
        t.vals.(s) <- t.scratch_v.(j);
        t.gens.(s) <- gen';
        continue := false
      end
      else i := (s + 1) land mask
    done
  done

(* Insert a key known to be absent (live count stays <= cap). *)
let insert t k v =
  if t.tombs > t.cap then rebuild t;
  let keys = t.keys and gens = t.gens and mask = t.mask and gen = t.gen in
  let i = ref (hash t k) in
  let continue = ref true in
  while !continue do
    let s = !i in
    let g = Array.unsafe_get gens s in
    if g <> gen || Array.unsafe_get keys s < 0 then begin
      if g = gen && Array.unsafe_get keys s = tomb then t.tombs <- t.tombs - 1;
      Array.unsafe_set keys s k;
      Array.unsafe_set t.vals s v;
      Array.unsafe_set gens s gen;
      t.live <- t.live + 1;
      continue := false
    end
    else i := (s + 1) land mask
  done

(* --- FIFO ring ------------------------------------------------------ *)

let ring_len t = Array.length t.ring

let ring_grow t =
  let len = ring_len t in
  let ring = Array.make (2 * len) 0 in
  let n = t.tail - t.head in
  for j = 0 to n - 1 do
    ring.(j) <- t.ring.((t.head + j) land (len - 1))
  done;
  t.ring <- ring;
  t.head <- 0;
  t.tail <- n

let ring_push t vp =
  if t.tail - t.head = ring_len t then ring_grow t;
  t.ring.(t.tail land (ring_len t - 1)) <- vp;
  t.tail <- t.tail + 1

let ring_pop t =
  let vp = t.ring.(t.head land (ring_len t - 1)) in
  t.head <- t.head + 1;
  vp

(* --- Public interface ----------------------------------------------- *)

(* A write through an entry that was filled without dirty tracking must
   re-walk (as x86 does to set the PTE dirty bit). *)
let hit t vp kind =
  let s = lookup t vp in
  s >= 0
  &&
  let v = Array.unsafe_get t.vals s in
  v land Types.kind_bit kind <> 0
  && (kind <> Types.Write || v land b_dirty_filled <> 0)

(* Pop ring entries until one still maps to a live table entry; stale
   entries (flush_page, replacement) are skipped, exactly like the old
   Queue-based eviction. *)
let rec evict_one t =
  if t.head <> t.tail then begin
    let vp = ring_pop t in
    let s = lookup t vp in
    if s >= 0 then remove_slot t s else evict_one t
  end

let fill_bits ?(dirty = false) t vp bits =
  let v = bits lor (if dirty then b_dirty_filled else 0) in
  let s = lookup t vp in
  if s >= 0 then t.vals.(s) <- v
  else begin
    if t.live >= t.cap then evict_one t;
    ring_push t vp;
    insert t vp v
  end

let fill ?dirty t vp perms = fill_bits ?dirty t vp (Types.perms_bits perms)

let flush t =
  t.gen <- t.gen + 1;
  t.live <- 0;
  t.tombs <- 0;
  t.head <- 0;
  t.tail <- 0

let flush_page t vp =
  let s = lookup t vp in
  if s >= 0 then remove_slot t s

let size t = t.live
let capacity t = t.cap

let footprint t acc =
  List.iter
    (Metrics.Words.add_block acc Metrics.Words.Tlb)
    [ Obj.repr t; Obj.repr t.keys; Obj.repr t.vals; Obj.repr t.gens;
      Obj.repr t.scratch_k; Obj.repr t.scratch_v; Obj.repr t.ring ]

(* Raw snapshot.  Everything observable must survive verbatim: the
   generation counter (dead slots from earlier generations stay dead),
   tombstones, and above all the FIFO ring *including stale entries* —
   a refilled page is evicted at its original, older ring position, and
   golden trace digests pin that order.  Normalising any of it on
   export would silently change post-restore eviction behaviour. *)
type raw = {
  raw_cap : int;
  raw_keys : int array;
  raw_vals : int array;
  raw_gens : int array;
  raw_gen : int;
  raw_live : int;
  raw_tombs : int;
  raw_ring : int array;
  raw_head : int;
  raw_tail : int;
}

let export_state t =
  {
    raw_cap = t.cap;
    raw_keys = Array.copy t.keys;
    raw_vals = Array.copy t.vals;
    raw_gens = Array.copy t.gens;
    raw_gen = t.gen;
    raw_live = t.live;
    raw_tombs = t.tombs;
    raw_ring = Array.copy t.ring;
    raw_head = t.head;
    raw_tail = t.tail;
  }

let import_state r =
  let size = Array.length r.raw_keys in
  if size < 16 || size land (size - 1) <> 0 then
    invalid_arg "Tlb.import_state: table size not a power of two";
  if Array.length r.raw_vals <> size || Array.length r.raw_gens <> size then
    invalid_arg "Tlb.import_state: keys/vals/gens length mismatch";
  let rlen = Array.length r.raw_ring in
  if rlen < 16 || rlen land (rlen - 1) <> 0 then
    invalid_arg "Tlb.import_state: ring size not a power of two";
  if r.raw_cap <= 0 then invalid_arg "Tlb.import_state: non-positive capacity";
  {
    cap = r.raw_cap;
    mask = size - 1;
    keys = Array.copy r.raw_keys;
    vals = Array.copy r.raw_vals;
    gens = Array.copy r.raw_gens;
    gen = r.raw_gen;
    live = r.raw_live;
    tombs = r.raw_tombs;
    scratch_k = Array.make r.raw_cap 0;
    scratch_v = Array.make r.raw_cap 0;
    ring = Array.copy r.raw_ring;
    head = r.raw_head;
    tail = r.raw_tail;
  }
