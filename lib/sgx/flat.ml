(* Window map: int -> int over one contiguous key range.

   The store is a dense array over the keys [base, base + Array.length
   vals); a slot holds the key's value, or [absent] (-1) when unbound,
   so values must be non-negative.  Every table keyed by an enclave's
   vpages spans one contiguous region, so the window stays tight and a
   lookup is one bounds check and one load.  The window grows toward a
   key that lands outside it, by a quarter or to the key plus slack,
   whichever is larger. *)

type t = {
  mutable base : int;       (* key of slot 0 *)
  mutable vals : int array; (* value, or [absent] *)
  mutable live : int;       (* slots holding a value *)
}

let absent = -1
let slack = 64

let create () = { base = 0; vals = [||]; live = 0 }

let length t = t.live

(* Grow the window to cover [k] with [slack] to spare, and by at least
   a quarter: a window filled in order is then at most a fifth empty
   past its slack, where doubling left up to half, and a run of keys
   still takes geometrically few grows.  The new room goes on the side
   [k] lies on, so keys arriving in descending order grow it as
   cheaply as ascending ones. *)
let grow t k =
  let len = Array.length t.vals in
  if len = 0 then begin
    t.base <- max 0 (k - slack);
    t.vals <- Array.make (2 * slack) absent
  end
  else begin
    let top = t.base + len in
    let least = len + (len / 4) in
    let base, n =
      if k < t.base then
        let n = max least (top - k + slack) in
        (max 0 (top - n), n)
      else (t.base, max least (k + 1 + slack - t.base))
    in
    let vals = Array.make n absent in
    Array.blit t.vals 0 vals (t.base - base) len;
    t.base <- base;
    t.vals <- vals
  end

let[@inline] find t k =
  let i = k - t.base in
  if i >= 0 && i < Array.length t.vals then Array.unsafe_get t.vals i else absent

let mem t k = find t k <> absent

let find_default t k d =
  let v = find t k in
  if v = absent then d else v

let set t k v =
  if k < 0 then invalid_arg "Flat.set: negative key";
  if v < 0 then invalid_arg "Flat.set: negative value";
  if k - t.base < 0 || k - t.base >= Array.length t.vals then grow t k;
  let i = k - t.base in
  if Array.unsafe_get t.vals i = absent then t.live <- t.live + 1;
  Array.unsafe_set t.vals i v

let remove t k =
  let i = k - t.base in
  if i >= 0 && i < Array.length t.vals && Array.unsafe_get t.vals i <> absent
  then begin
    Array.unsafe_set t.vals i absent;
    t.live <- t.live - 1
  end

let clear t =
  Array.fill t.vals 0 (Array.length t.vals) absent;
  t.live <- 0

let iter f t =
  let base = t.base and vals = t.vals in
  for i = 0 to Array.length vals - 1 do
    let v = Array.unsafe_get vals i in
    if v <> absent then f (base + i) v
  done

let fold f t init =
  let acc = ref init in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

(* Raw snapshot: window base + value array verbatim.  The geometry
   decides nothing observable except when the next [grow] fires, but the
   probe digest hashes the array, so it is preserved as-is. *)
type raw = { raw_base : int; raw_vals : int array }

let export_state t = { raw_base = t.base; raw_vals = Array.copy t.vals }

let import_state r =
  if r.raw_base < 0 then invalid_arg "Flat.import_state: negative base";
  let live = ref 0 in
  Array.iter
    (fun v ->
      if v < absent then invalid_arg "Flat.import_state: negative value";
      if v <> absent then incr live)
    r.raw_vals;
  { base = r.raw_base; vals = Array.copy r.raw_vals; live = !live }
