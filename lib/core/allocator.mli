(** The libOS page/object allocator with automatic data clustering
    (§5.2.3, "Automatic clustering for data pages").

    Every allocated page is registered with the current cluster; when the
    cluster reaches the configured size a new one is started.  Freeing
    pages leaves clusters sparse; once two clusters fall to half capacity
    or less the allocator merges them to keep clusters near-full.

    [alloc] is a bump allocator for objects: objects smaller than a page
    never span pages (so, e.g., 256-byte hash items pack 16 to a page,
    exactly the layout the paper's uthash experiment leaks through). *)

type t

val create :
  clusters:Clusters.t -> base_vpage:Sgx.Types.vpage -> pages:int ->
  cluster_pages:int -> t
(** Manage the region [\[base_vpage, base_vpage+pages)], clustering
    allocated pages into clusters of [cluster_pages] pages.  Raises
    [Invalid_argument] naming [pages] or [cluster_pages] unless it is
    positive. *)

val clusters : t -> Clusters.t
(** The cluster registry this allocator populates. *)

val alloc_page : t -> Sgx.Types.vpage
(** Take one page (registered with the current cluster).
    Raises [Out_of_memory] when the region is exhausted. *)

val alloc : t -> bytes:int -> Sgx.Types.vaddr
(** Allocate an object of [bytes] bytes; sub-page objects never straddle
    a page boundary.  Raises [Invalid_argument] naming [bytes] unless it
    is positive. *)

val close_bump_page : t -> unit
(** End the current partial object page: the next sub-page allocation
    starts on a fresh page.  Callers use this between logically separate
    data sets (e.g. dictionaries that will become distinct clusters) so
    no page is shared across the boundary. *)

val free_page : t -> Sgx.Types.vpage -> unit
(** Return a page; may trigger cluster merging. *)

val allocated_pages : t -> Sgx.Types.vpage list
(** All currently-allocated pages, ascending. *)

val pages_in_use : t -> int
val base_vpage : t -> Sgx.Types.vpage
val end_vpage : t -> Sgx.Types.vpage
(** One past the highest page ever handed out. *)
