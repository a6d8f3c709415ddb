type blob = V1 of Sgx.Instructions.swapped | V2 of Sim_crypto.Sealer.sealed

(* A Flat index (vpage -> slot) over a growable blob array; freed slots
   go on an int stack for reuse.  Both arrays start at 64 entries per
   process and double on demand, each on its own: the stack only ever
   holds the slots of pages currently resident, far fewer than a large
   image's swapped pages. *)
type t = {
  index : Sgx.Flat.t;
  mutable blobs : blob array;
  mutable free : int array;  (* stack of free slots below [high] *)
  mutable n_free : int;
  mutable high : int;  (* slots ever handed out *)
}

(* Fills unused slots; never returned for a stored page. *)
let vacant =
  V2 { Sim_crypto.Sealer.ciphertext = Bytes.empty; mac = 0L; vaddr = 0L; version = 0L }

let init_slots = 64

let create () =
  {
    index = Sgx.Flat.create ();
    blobs = Array.make init_slots vacant;
    free = Array.make init_slots 0;
    n_free = 0;
    high = 0;
  }

let fresh_slot t =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.free.(t.n_free)
  end
  else begin
    let s = t.high in
    if s = Array.length t.blobs then begin
      let blobs = Array.make (2 * s) vacant in
      Array.blit t.blobs 0 blobs 0 s;
      t.blobs <- blobs
    end;
    t.high <- s + 1;
    s
  end

let put t vp blob =
  let s = Sgx.Flat.find t.index vp in
  if s >= 0 then t.blobs.(s) <- blob
  else begin
    let s = fresh_slot t in
    Sgx.Flat.set t.index vp s;
    t.blobs.(s) <- blob
  end

let slot t vp = Sgx.Flat.find t.index vp
let blob_at t s = t.blobs.(s)

let delete t vp =
  let s = Sgx.Flat.find t.index vp in
  if s >= 0 then begin
    Sgx.Flat.remove t.index vp;
    t.blobs.(s) <- vacant;
    if t.n_free = Array.length t.free then begin
      let free = Array.make (2 * t.n_free) 0 in
      Array.blit t.free 0 free 0 t.n_free;
      t.free <- free
    end;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  end

let peek t vp =
  let s = slot t vp in
  if s >= 0 then Some t.blobs.(s) else None

let take t vp =
  let s = slot t vp in
  if s < 0 then None
  else begin
    let b = t.blobs.(s) in
    delete t vp;
    Some b
  end

let mem t vp = Sgx.Flat.mem t.index vp
let size t = Sgx.Flat.length t.index
let replace_raw = put
