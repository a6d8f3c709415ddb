(** A uthash-style chained hash table (§7.2's paging-intensive workload).

    Like the C original, the table is an array of bucket heads; each
    bucket is a singly-linked chain of fixed-size items allocated from a
    caller-supplied allocator (the Autarky libOS allocator in the cluster
    experiments, so items are automatically clustered).  A lookup reads
    the bucket head, walks the chain comparing keys (one cache-line read
    per node), and reads the full value of the match — reproducing the
    per-bucket page-access signature the Hunspell attack exploits and
    the paging behaviour of Figure 6.

    Like uthash's internal expansion, {!rehash} doubles the bucket array
    and relinks nodes in place (no data movement), halving mean chain
    length.

    The host representation is two words per item, its address and its
    chain successor, in one int array indexed by key: the key is the
    item's insertion index, so a chain step compares without a load.
    Nothing modeled reads this layout. *)

type t

val create :
  vm:Vm.t -> alloc:(bytes:int -> int) -> rng:Metrics.Rng.t ->
  n_items:int -> item_bytes:int -> target_chain:int -> t
(** Build a table of [n_items] items of [item_bytes] each, with
    [n_items / target_chain] buckets (so chains average [target_chain]).
    Insertion traffic goes through [vm].  Raises [Invalid_argument]
    naming [n_items], [item_bytes] or [target_chain] unless each is
    positive. *)

val n_items : t -> int
val n_buckets : t -> int
val mean_chain_length : t -> float

val find : t -> key:int -> bool
(** Look a key up through [vm]; keys are [0 .. n_items) from insertion
    order, and any other int misses after a full chain walk.  Allocates
    nothing beyond what [vm]'s callbacks do. *)

val rehash : t -> unit
(** Double the bucket array and redistribute chains (bucket expansion). *)

val item_page : t -> key:int -> int
(** The page holding the item's node (attack ground truth). *)

val probe_pages : t -> key:int -> int list
(** The distinct pages {!find} touches for [key] (ascending), computed
    without emitting VM traffic — ground truth for attack oracles. *)

val item_pages : t -> int list
(** Distinct pages holding items (ascending) — the pages a protection
    policy must cover. *)

val head_pages : t -> int list
(** Pages of the bucket-head array. *)
