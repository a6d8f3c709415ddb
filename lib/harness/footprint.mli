(** The memory ledger: host heap words per structure class.

    A report walks one simulated world through its owners, which pass
    one {!Metrics.Words} accumulator down to every structure they hold,
    so each block is counted once, where it was built.  It then takes
    one [Obj.reachable_words] of the world's root and reports what no
    owner claimed as [unattributed]: a structure that nobody registers
    still shows up there.  Calling [Obj.reachable_words] once per owner
    instead would count every block that two owners share twice.

    The walk and the reachability count read the heap and nothing else,
    so a report moves no modeled figure; it is still a full traversal of
    the world, so it belongs outside timed phases. *)

type t = {
  tenants : int;  (** the divisor of the per-tenant column *)
  by_class : (Metrics.Words.cls * int) list;  (** words, in report order *)
  reachable : int;  (** [Obj.reachable_words] of the root *)
  slots : int;  (** {!Sgx.Flat} window slots *)
  live_slots : int;  (** of which bound *)
}

val measure : root:'a -> tenants:int -> (Metrics.Words.t -> unit) -> t
(** [measure ~root ~tenants walk] runs [walk] over a fresh accumulator
    and reconciles it against the words reachable from [root].  Raises
    [Invalid_argument] unless [tenants] is positive. *)

val words : t -> Metrics.Words.cls -> int

val unattributed : t -> int
(** [reachable] minus every class. *)

val pp : label:string -> Format.formatter -> t -> unit
(** One table: bytes in total, MB and bytes per tenant for each class,
    the unattributed rest and the reachable total, then the windows'
    occupancy. *)
