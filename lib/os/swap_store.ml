(* A Flat index (vpage -> slot) over three growable slot arrays: the
   entry's bytes, its PCMD and, while the entry is deferred, its VA
   version.  A sealed entry's bytes are its row and its version slot
   holds -1; a deferred entry's bytes are its plaintext until the first
   read seals the row in its place.  Freed slots go on an int stack
   for reuse.  The slot arrays and the stack start at 64 entries per
   process and grow by a quarter on demand, the slot arrays together
   and the stack on its own: the stack only ever holds the slots of
   pages currently resident, far fewer than a large image's swapped
   pages. *)
type t = {
  sealer : Sim_crypto.Sealer.t;
  index : Sgx.Flat.t;
  mutable rows : bytes array;  (* a sealed row, or a deferred plaintext *)
  mutable pcmds : int array;
  mutable versions : int array;  (* a deferred entry's version, else -1 *)
  mutable free : int array;  (* stack of free slots below [high] *)
  mutable n_free : int;
  mutable high : int;  (* slots ever handed out *)
  mutable zero : bytes;  (* the plaintext every all-zero deferred entry shares *)
}

let runtime_sealed = -1
let not_deferred = -1

(* Fills unused slots; never returned for a stored page. *)
let vacant = Bytes.empty

let init_slots = 64

let create sealer =
  {
    sealer;
    index = Sgx.Flat.create ();
    rows = Array.make init_slots vacant;
    pcmds = Array.make init_slots 0;
    versions = Array.make init_slots not_deferred;
    free = Array.make init_slots 0;
    n_free = 0;
    high = 0;
    zero = Bytes.empty;
  }

let grow a fill =
  let len = Array.length a in
  let b = Array.make (len + max 1 (len / 4)) fill in
  Array.blit a 0 b 0 len;
  b

let fresh_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    let s = t.high in
    if s = Array.length t.rows then begin
      t.rows <- grow t.rows vacant;
      t.pcmds <- grow t.pcmds 0;
      t.versions <- grow t.versions not_deferred
    end;
    t.high <- s + 1;
    s
  end

let entry_slot t vp =
  let s = Sgx.Flat.find t.index vp in
  if s >= 0 then s
  else begin
    let s = fresh_slot t in
    Sgx.Flat.set t.index vp s;
    s
  end

let put t vp row ~pcmd =
  let s = entry_slot t vp in
  t.rows.(s) <- Sim_crypto.Sealer.raw row;
  t.pcmds.(s) <- pcmd;
  t.versions.(s) <- not_deferred

let put_deferred t vp ~version plaintext ~pcmd =
  if version < 0 then invalid_arg "Swap_store.put_deferred: negative version";
  if Bytes.length t.zero <> Bytes.length plaintext then
    t.zero <- Bytes.make (Bytes.length plaintext) '\000';
  let plaintext =
    if Bytes.equal plaintext t.zero then t.zero else Bytes.copy plaintext
  in
  let s = entry_slot t vp in
  t.rows.(s) <- plaintext;
  t.pcmds.(s) <- pcmd;
  t.versions.(s) <- version

(* The first read of a deferred entry seals its row, which then stays. *)
let seal_deferred t vp s =
  let version = t.versions.(s) in
  if version <> not_deferred then begin
    t.rows.(s) <-
      Sim_crypto.Sealer.raw
        (Sgx.Instructions.seal_page t.sealer ~vpage:vp ~version t.rows.(s));
    t.versions.(s) <- not_deferred
  end

let slot t vp =
  let s = Sgx.Flat.find t.index vp in
  if s >= 0 then seal_deferred t vp s;
  s

let row_at t s = Sim_crypto.Sealer.of_bytes t.rows.(s)
let pcmd_at t s = t.pcmds.(s)

let delete t vp =
  let s = Sgx.Flat.find t.index vp in
  if s >= 0 then begin
    Sgx.Flat.remove t.index vp;
    t.rows.(s) <- vacant;
    t.versions.(s) <- not_deferred;
    if t.n_free = Array.length t.free then t.free <- grow t.free 0;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  end

let peek t vp =
  let s = slot t vp in
  if s >= 0 then Some (row_at t s, t.pcmds.(s)) else None

let mem t vp = Sgx.Flat.mem t.index vp

let mem_runtime_sealed t vp =
  let s = Sgx.Flat.find t.index vp in
  s >= 0 && t.pcmds.(s) = runtime_sealed

let size t = Sgx.Flat.length t.index

let iter f t =
  Sgx.Flat.iter
    (fun vp s ->
      seal_deferred t vp s;
      f (row_at t s) t.pcmds.(s))
    t.index

(* A row's stored version as an int, or -1 when it holds none that fits
   (only a row the untrusted side forged). *)
let row_version row =
  match Sim_crypto.Sealer.version (Sim_crypto.Sealer.of_bytes row) with
  | v -> if Int64.of_int (Int64.to_int v) = v then Int64.to_int v else -1
  | exception Invalid_argument _ -> -1

let iter_versions f t =
  Sgx.Flat.iter
    (fun _ s ->
      let v = t.versions.(s) in
      f (if v <> not_deferred then v else row_version t.rows.(s)) t.pcmds.(s))
    t.index

let replace_raw = put
