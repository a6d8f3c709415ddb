(** Page clusters (§5.2.3, Table 1).

    A cluster is a consistent set of enclave-managed pages that are
    fetched and evicted together: on a fault, all pages of every cluster
    (transitively) sharing pages with the faulting page's clusters are
    fetched, so the attacker cannot tell which member page faulted.

    The system invariant (§5.2.3): for every non-resident registered
    page, there is at least one cluster containing it whose pages are all
    non-resident.  Fetching the transitive sharing set preserves it;
    evicting a single whole cluster preserves it too. *)

type cluster_id = int
type vpage = Sgx.Types.vpage

type t

val create : unit -> t

(** {1 The Table 1 API} *)

val ay_init_clusters : t -> n:int -> size:int -> cluster_id list
(** Pre-create [n] empty clusters with a soft capacity of [size] pages
    each (capacity guides the automatic allocator; manual [ay_add_page]
    may exceed it).  Raises [Invalid_argument] naming [n] or [size]
    unless it is positive. *)

val ay_release_clusters : t -> unit
(** Drop all clusters and registrations. *)

val ay_add_page : t -> cluster:cluster_id -> vpage -> unit
(** Register [vpage] with [cluster].  A page may belong to several
    clusters (typical for shared library code). *)

val ay_remove_page : t -> cluster:cluster_id -> vpage -> unit
val ay_get_cluster_ids : t -> vpage -> cluster_id list
(** The page's clusters, most recently added first; [[]] if
    unregistered. *)

val detach : t -> vpage -> unit
(** Remove a page from every cluster it belongs to — used when taking a
    page out of the allocator's automatic clustering before assigning it
    to an application-defined cluster (mixing both on one page would
    make their fetch sets transitively entangled). *)

(** {1 Management} *)

val new_cluster : t -> ?size:int -> unit -> cluster_id
val pages_of : t -> cluster_id -> vpage list
(** Members, most recently added first. *)

val size_of : t -> cluster_id -> int
val capacity_of : t -> cluster_id -> int
val cluster_count : t -> int
val registered : t -> vpage -> bool
val registered_pages : t -> vpage list

val merge : t -> into:cluster_id -> from:cluster_id -> unit
(** Move every page of [from] into [into] and delete [from] (used by the
    allocator to keep clusters near-full as pages are freed).  Raises
    [Invalid_argument] when either id names no cluster, before anything
    moves. *)

(** {1 Fault-time computations}

    The clusters are indexed by the connected components of the
    cluster-sharing graph (union-find over cluster ids).  Adding a page
    updates the components in place; removing a page, {!merge} and
    {!detach} re-derive only the affected component.  Both sets below
    are built on the first query after a change and then returned as
    is: a query on an unchanged layout costs one page lookup and one
    root lookup and allocates nothing.  The returned arrays are shared
    with the index and must not be mutated; a later change replaces
    them rather than editing them. *)

val fetch_set : t -> vpage -> vpage array
(** The transitive closure required by the invariant: all pages of all
    clusters reachable from [vpage] through shared pages — exactly the
    component of [vpage]'s clusters — in ascending order.  For an
    unregistered page this is just [[|vpage|]] (freshly allocated). *)

val largest_fetch_set : t -> int
(** Size of the largest {!fetch_set} of a registered page; [0] when no
    page is registered.  One pass over the component roots (building any
    set not yet built). *)

val evict_set : t -> vpage -> vpage array
(** The pages, ascending, of [vpage]'s most recently added cluster (the
    head of {!ay_get_cluster_ids}) — single-cluster eviction is always
    safe.  [[|vpage|]] if unregistered. *)

val invariant_holds : t -> resident:(vpage -> bool) -> bool
(** Check the cluster residence invariant against a residence oracle
    (test/debug helper). *)
