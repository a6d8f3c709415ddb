(** Cluster-granularity self-paging (§5.2.3).

    On a legitimate miss, the policy fetches the full transitive sharing
    set of the faulting page's clusters (see {!Clusters.fetch_set}), so
    the OS learns only that *some* page of the set was touched.  Eviction
    picks the FIFO-oldest resident page and evicts one whole cluster
    containing it — single-cluster eviction preserves the residence
    invariant; clusters overlapping the incoming fetch set are skipped as
    victims.  A fetch set larger than the pager budget cannot be served
    whole, so the enclave terminates. *)

type t

val create : runtime:Runtime.t -> clusters:Clusters.t -> t

val set_min_budget : t -> int -> unit
(** The floor (default 32) the pager budget degrades toward under
    sustained memory-pressure upcalls: the first balloon call only
    evicts whole clusters; the second and further ones also shrink the
    budget, counted in ["rt.policy_degraded"].  The shrink also stops
    at the largest cluster fetch set ({!Clusters.largest_fetch_set}), so
    every fetch set still fits.  Raises [Invalid_argument] naming [n]
    unless it is positive. *)

val policy : t -> Runtime.policy
val clusters : t -> Clusters.t
val cluster_fetches : t -> int
(** Number of cluster-granularity fetch operations performed. *)
