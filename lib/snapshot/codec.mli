(** Little-endian binary writer/reader plus the explicit codecs for the
    flat SGX hot structures.

    The whole-world capture is Marshal-based ({!Snapshot}); these
    codecs exist so the structures whose physical layout is
    load-bearing (tombstones, generation stamps, the TLB FIFO ring)
    have a Marshal-independent round-trip that the QCheck suite and the
    probe digest can check. *)

exception Short
(** A reader ran off the end of its input. *)

module W : sig
  val u8 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  val i64 : Buffer.t -> int64 -> unit
  val int_ : Buffer.t -> int -> unit
  (** Native int as a little-endian 64-bit value. *)

  val str : Buffer.t -> string -> unit
  (** Length-prefixed (u32) string. *)

  val bytes_ : Buffer.t -> bytes -> unit
  val int_array : Buffer.t -> int array -> unit
end

module R : sig
  type t

  val of_string : string -> t
  val pos : t -> int
  val remaining : t -> int

  val u8 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int_ : t -> int
  val str : t -> string
  val bytes_ : t -> bytes
  val int_array : t -> int array

  val take : t -> int -> string
  (** The next [n] raw bytes. *)

  val skip : t -> int -> unit
  (** All readers raise {!Short} when the input is exhausted. *)
end

(** {1 Structure codecs}

    Verbatim physical state (see the [export_state]/[import_state]
    pairs in [Sgx]); each value leads with a one-byte tag, and the
    readers raise [Invalid_argument] on a tag mismatch. *)

val write_flat : Buffer.t -> Sgx.Flat.t -> unit
val read_flat : R.t -> Sgx.Flat.t
(** Also the page-table codec: a {!Sgx.Page_table.t} is a {!Sgx.Flat.t}. *)

val write_tlb : Buffer.t -> Sgx.Tlb.t -> unit
val read_tlb : R.t -> Sgx.Tlb.t
