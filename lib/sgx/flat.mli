(** Window map: int -> int over one contiguous key range, with
    allocation-free lookups.

    The map is one [int array] over the keys [\[base, base + n)]; a
    lookup is a bounds check and one load, and {!find} returns
    {!absent} ([-1]) for a missing key instead of an [option].  Keys and
    values must be non-negative.  Used for the simulator's per-enclave
    page state (page tables, the pager's seq and version sets,
    enclave-managed and intended-perms tables, swap index, fault counts,
    cluster slots, the EPCM reverse index, one window per enclave) and
    the VA-slot versions, all keyed by the pages of one contiguous
    region or by ids counted from 0.

    {b Hazard: the window spans every key it has held.}  Setting keys
    [a] and [b] allocates at least [|a - b|] slots (8 bytes each), and
    the window never shrinks, not even on {!remove} or {!clear}.  Keep
    one map per dense key range; never key it by a packed or widely
    spread id (such as an enclave id in the high bits). *)

type t

val absent : int
(** [-1]; the sentinel {!find} returns for a missing key. *)

val create : unit -> t
(** An empty map; its window is allocated by the first {!set}. *)

val length : t -> int
val mem : t -> int -> bool

val find : t -> int -> int
(** The value bound to the key, or {!absent}.  Never allocates. *)

val find_default : t -> int -> int -> int
(** [find_default t k d] is the value bound to [k], or [d]. *)

val set : t -> int -> int -> unit
(** Bind (or rebind) a key, widening the window to cover it: by a
    quarter, or to the key plus 64 slots of slack if that is more.
    Raises [Invalid_argument] on a negative key or a negative value. *)

val remove : t -> int -> unit
(** Unbind a key; absent keys are ignored. *)

val clear : t -> unit
(** Remove every binding, keeping the window. *)

val iter : (int -> int -> unit) -> t -> unit
(** Visit the bindings in ascending key order. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the bindings in ascending key order. *)

(** {1 Raw state (snapshot/restore)}

    The window verbatim, base and slack included.  Re-inserting the
    bindings into a fresh map would be observationally equivalent to
    [find]/[set] but would change the window and its next growth point,
    so checkpointing goes through these instead. *)

type raw = {
  raw_base : int;          (** key of slot 0 *)
  raw_vals : int array;    (** value per slot, [-1] when unbound *)
}

val export_state : t -> raw
(** A deep copy of the window. *)

val import_state : raw -> t
(** Rebuild a map bit-identical to the exported one.  Raises
    [Invalid_argument] on a negative base or a value below [-1]. *)
