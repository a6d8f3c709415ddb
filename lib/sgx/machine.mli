(** The simulated platform: one CPU package with its EPC, TLB, paging
    keys and anti-replay version store, shared clock, and the id and
    address allocator for the enclaves it hosts.  It keeps no reference
    to an enclave: a released enclave is collectable once its process is
    gone. *)

(** How fault delivery transitions are performed — the three
    configurations of the paper's Table 2 and §5.1.3:
    {ul
    {- [Full_exits]: the measured prototype — AEX to the OS, EENTER the
       handler, EEXIT, ERESUME.}
    {- [No_upcall]: proposed in-enclave ERESUME variant — the handler
       resumes directly, eliding EEXIT+ERESUME.}
    {- [No_upcall_no_aex]: additionally elide the AEX — the fault is
       delivered straight to the in-enclave handler, the OS never runs.}} *)
type transition_mode = Full_exits | No_upcall | No_upcall_no_aex

val pp_transition_mode : Format.formatter -> transition_mode -> unit

(** Counter cells pre-resolved at machine construction so the
    per-access and per-transition paths never hash a counter name.
    [c_fault] is indexed by {!Types.fault_cause_index}. *)
type hot_counters = {
  c_tlb_miss : Metrics.Counters.cell;
  c_page_fault : Metrics.Counters.cell;
  c_fault : Metrics.Counters.cell array;
  c_ecreate : Metrics.Counters.cell;
  c_eadd : Metrics.Counters.cell;
  c_einit : Metrics.Counters.cell;
  c_aex : Metrics.Counters.cell;
  c_eresume : Metrics.Counters.cell;
  c_eenter : Metrics.Counters.cell;
  c_eexit : Metrics.Counters.cell;
  c_aex_elided : Metrics.Counters.cell;
  c_inenclave_resume : Metrics.Counters.cell;
  c_epa : Metrics.Counters.cell;
  c_eblock : Metrics.Counters.cell;
  c_etrack : Metrics.Counters.cell;
  c_ewb : Metrics.Counters.cell;
  c_eldu : Metrics.Counters.cell;
  c_eaug : Metrics.Counters.cell;
  c_eaccept : Metrics.Counters.cell;
  c_eacceptcopy : Metrics.Counters.cell;
  c_emodpr : Metrics.Counters.cell;
  c_emodt : Metrics.Counters.cell;
  c_eremove : Metrics.Counters.cell;
}

type t = {
  clock : Metrics.Clock.t;
  hot : hot_counters;
  epc : Epc.t;
  tlb : Tlb.t;
  sealer : Sim_crypto.Sealer.t;  (** hardware paging keys (EWB/ELDU) *)
  (* Version arrays: EPC pages of 512 anti-replay slots, provisioned by
     the OS with EPA.  A slot holds the version of one swapped-out page
     and is consumed by the ELDU that reloads it. *)
  va_slots : Flat.t;  (** occupied slot -> version (as a native int) *)
  mutable va_free : int array;
      (** free slots, oldest first, as a power-of-two ring between the
          absolute indices [va_free_head] and [va_free_tail] *)
  mutable va_free_head : int;
  mutable va_free_tail : int;
  mutable va_next_slot : int;
  mutable va_frames : Types.frame list;
  mutable va_counter : int;  (** last version handed out (from 1) *)
  mutable next_enclave_id : int;
  mutable next_base_vpage : Types.vpage;
  mutable mode : transition_mode;
  mutable tracer : Trace.Recorder.t option;
      (** event recorder shared by every layer of this platform; [None]
          (the default) disables tracing at the cost of one branch per
          potential emit site *)
  branch_ring : (int * int) array;
      (** branch-trace store (LBR/BTB model): the most recent
          enclave-mode control transfers as [(enclave_id, vpage)]
          records.  SGX leaves it intact across AEX — the substrate of
          Lee et al.'s Branch Shadowing channel, which Autarky's paging
          ISA does not (and does not claim to) close. *)
  mutable branch_cursor : int;  (** total branches ever recorded *)
}

val branch_ring_capacity : int

val record_branch : t -> enclave_id:int -> vpage:Types.vpage -> unit
(** Record one enclave-mode control transfer (an exec access) in the
    branch-trace ring.  Pure microarchitectural state: no cycles are
    charged, no counters or trace events fire. *)

val drain_branches : t -> enclave_id:int -> Types.vpage list
(** Read out and clear the branch-trace ring, keeping only records of
    the given enclave (oldest first).  Models a privileged LBR read-out:
    destructive, bounded by {!branch_ring_capacity}. *)

val create :
  ?model:Metrics.Cost_model.t -> ?mode:transition_mode -> epc_frames:int ->
  unit -> t

val footprint : t -> Metrics.Words.t -> unit
(** Count the EPC ({!Epc.footprint}), the TLB, the VA-slot window and,
    in the swap-store class, the sealer that every swap store holds. *)

val model : t -> Metrics.Cost_model.t
val charge : t -> int -> unit
val counters : t -> Metrics.Counters.t
val hot : t -> hot_counters

val tracer : t -> Trace.Recorder.t option
val set_tracer : t -> Trace.Recorder.t option -> unit

val trace_access : Types.access_kind -> Trace.Event.access

val register_enclave : t -> size_pages:int -> self_paging:bool -> Enclave.t
(** Allocate a fresh virtual region and enclave id (used by ECREATE). *)

(** {1 Version-array slots}

    Anti-replay versions count up from 1 in a native int; free slots
    sit in a FIFO int ring and occupied ones in a {!Flat} map, so the
    per-page EWB/ELDU calls below return plain ints ([-1] for none)
    and allocate nothing. *)

val fresh_va_version : t -> int
(** The next version (1, 2, ...). *)

val free_va_slots : t -> int
val provision_va_page : t -> frame:Types.frame -> unit
(** Register 512 fresh slots backed by [frame] (EPA's effect). *)

val take_va_slot : t -> version:int -> int
(** Occupy the oldest free slot with a version and return it; [-1]
    when no VA capacity is left. *)

val read_va_slot : t -> int -> int
(** The version held in a slot, or [-1] when the slot is free. *)

val clear_va_slot : t -> int -> unit
(** Release the slot for reuse (the reload consumed its version). *)

val iter_free_va_slots : (int -> unit) -> t -> unit
(** The free slots, in the order {!take_va_slot} will hand them out. *)
