(** Translation lookaside buffer of the (single) simulated logical core.

    The TLB matters to the security model: accessed/dirty bits are only
    read and updated on a TLB *fill*, so an attacker monitoring them must
    first force the TLB to be flushed.  SGX flushes enclave translations
    on every enclave entry and exit, which the enclave-transition code
    does through {!flush}.

    Capacity is finite (default 1536 entries, an Ice Lake-class L2 TLB);
    fills beyond capacity evict FIFO.  Fill frequency drives the cost of
    Autarky's per-fill accessed/dirty check (the nbench experiment).

    The representation is flat: a fixed-size open-addressing int table
    with generation-counter flushes (O(1), no memset on the 4+ flushes
    per fault) and an int ring buffer for FIFO order.  {!hit}, {!fill}
    and {!flush} allocate nothing.  {!Tlb_ref} is the boxed reference
    implementation kept as a differential oracle. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty TLB of [capacity] entries (default 1536).  Raises
    [Invalid_argument] naming [capacity] unless it is positive. *)

val hit : t -> Types.vpage -> Types.access_kind -> bool
(** [hit t vp kind] is true when the translation is cached with
    sufficient rights for [kind].  Never allocates. *)

val fill : ?dirty:bool -> t -> Types.vpage -> Types.perms -> unit
(** Install a translation after a successful walk, evicting the oldest
    entry if full.  [dirty] records whether the fill performed dirty
    tracking: a later write through a non-dirty entry re-walks, exactly
    as x86 does to set the PTE dirty bit. *)

val fill_bits : ?dirty:bool -> t -> Types.vpage -> int -> unit
(** {!fill} taking the permission mask of {!Types.perms_bits} directly,
    for callers already holding packed permissions (the MMU walk). *)

val flush : t -> unit
val flush_page : t -> Types.vpage -> unit
val size : t -> int
val capacity : t -> int

(** {1 Raw state (snapshot/restore)}

    Verbatim copies of the physical arrays — generation counter,
    tombstones, and the FIFO ring including stale entries.  Eviction
    order after a restore must match the un-snapshotted run exactly
    (golden digests pin it), so nothing is normalised on export. *)

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

val export_state : t -> raw
val import_state : raw -> t
(** Raises [Invalid_argument] on structurally invalid raw state (sizes
    not powers of two, mismatched array lengths). *)
