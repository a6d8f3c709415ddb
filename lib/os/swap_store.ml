(* A Flat index (vpage -> slot) over a growable row array and a
   parallel PCMD array; freed slots go on an int stack for reuse.  The
   two slot arrays and the stack start at 64 entries per process and
   double on demand, the slot arrays together and the stack on its
   own: the stack only ever holds the slots of pages currently
   resident, far fewer than a large image's swapped pages. *)
type t = {
  index : Sgx.Flat.t;
  mutable rows : Sim_crypto.Sealer.sealed array;
  mutable pcmds : int array;
  mutable free : int array;  (* stack of free slots below [high] *)
  mutable n_free : int;
  mutable high : int;  (* slots ever handed out *)
}

let runtime_sealed = -1

(* Fills unused slots; never returned for a stored page. *)
let vacant = Sim_crypto.Sealer.of_bytes Bytes.empty

let init_slots = 64

let create () =
  {
    index = Sgx.Flat.create ();
    rows = Array.make init_slots vacant;
    pcmds = Array.make init_slots 0;
    free = Array.make init_slots 0;
    n_free = 0;
    high = 0;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
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
      t.pcmds <- grow t.pcmds 0
    end;
    t.high <- s + 1;
    s
  end

let put t vp row ~pcmd =
  let s = Sgx.Flat.find t.index vp in
  let s =
    if s >= 0 then s
    else begin
      let s = fresh_slot t in
      Sgx.Flat.set t.index vp s;
      s
    end
  in
  t.rows.(s) <- row;
  t.pcmds.(s) <- pcmd

let slot t vp = Sgx.Flat.find t.index vp
let row_at t s = t.rows.(s)
let pcmd_at t s = t.pcmds.(s)

let delete t vp =
  let s = Sgx.Flat.find t.index vp in
  if s >= 0 then begin
    Sgx.Flat.remove t.index vp;
    t.rows.(s) <- vacant;
    if t.n_free = Array.length t.free then t.free <- grow t.free 0;
    t.free.(t.n_free) <- s;
    t.n_free <- t.n_free + 1
  end

let peek t vp =
  let s = slot t vp in
  if s >= 0 then Some (t.rows.(s), t.pcmds.(s)) else None

let mem t vp = Sgx.Flat.mem t.index vp
let size t = Sgx.Flat.length t.index
let iter f t = Sgx.Flat.iter (fun _ s -> f t.rows.(s) t.pcmds.(s)) t.index
let replace_raw = put
