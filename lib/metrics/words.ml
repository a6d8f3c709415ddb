type cls =
  | Swap_stores
  | Flat_windows
  | Workload_tables
  | Latency
  | Epc_payloads
  | Epcm
  | Tlb
  | Oram

let classes =
  [ Swap_stores; Flat_windows; Workload_tables; Latency; Epc_payloads; Epcm; Tlb; Oram ]

let class_name = function
  | Swap_stores -> "swap stores"
  | Flat_windows -> "flat windows"
  | Workload_tables -> "workload tables"
  | Latency -> "latency sketches"
  | Epc_payloads -> "epc payloads"
  | Epcm -> "epcm"
  | Tlb -> "tlb"
  | Oram -> "oram tree+stash"

(* The blocks [once] has seen, searched with [==]: physical identity
   survives the collector moving a block, which a hash of its address
   would not.  Only the few blocks that several owners share pass
   through [once], so a list is enough. *)
type t = {
  by_class : (cls, int) Hashtbl.t;
  mutable seen : Obj.t list;
  mutable slots : int;
  mutable live : int;
}

let create () = { by_class = Hashtbl.create 8; seen = []; slots = 0; live = 0 }

let block x =
  let r = Obj.repr x in
  if Obj.is_int r then 0 else Obj.size r + 1

let words t c = Option.value (Hashtbl.find_opt t.by_class c) ~default:0
let add t c w = Hashtbl.replace t.by_class c (words t c + w)

let add_block t c x = add t c (block x)

let once t ~cls x ~words =
  let r = Obj.repr x in
  if not (List.memq r t.seen) then begin
    t.seen <- r :: t.seen;
    add t cls words
  end

let add_slots t ~slots ~live =
  t.slots <- t.slots + slots;
  t.live <- t.live + live

let slots t = t.slots
let live_slots t = t.live
