(** Summary statistics for experiment measurements. *)

type t
(** A mutable accumulator of float samples. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** Mean of the samples; 0 when empty. *)

val stddev : t -> float
(** Sample standard deviation (Bessel-corrected); 0 for fewer than two
    samples. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0,100\]], by nearest-rank on the sorted
    samples. Raises [Invalid_argument] when empty. *)

type summary = {
  s_count : int;
  s_mean : float;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
  s_max : float;
}
(** The fixed percentile set SLO reports are built from. *)

val summary : t -> summary
(** [summary t] computes count/mean/p50/p95/p99/max in one pass (one
    sort).  All fields are 0 when the accumulator is empty; with a
    single sample every percentile equals that sample. *)

val merge_into : into:t -> t -> unit
(** Exact shard merge: after [merge_into ~into src], [into] holds the
    union of both sample sets (every sample is retained, so percentiles
    of the merge are exact, not approximated).  [src] is unchanged. *)

val merged : t list -> t
(** Fresh accumulator over the union of all inputs' samples. *)

val geomean : float list -> float
(** Geometric mean of positive values; raises [Invalid_argument] on an
    empty list or non-positive values. *)

module Histogram : sig
  type h

  val create : bucket_width:float -> h
  val add : h -> float -> unit
  val buckets : h -> (float * int) list
  (** [(lower_bound, count)] pairs for non-empty buckets, sorted. *)
end
