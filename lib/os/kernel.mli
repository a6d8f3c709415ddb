(** The untrusted operating system.

    The kernel owns every enclave's page table and backing store, services
    page faults, runs demand paging for OS-managed pages, and implements
    the four Autarky system calls through which a self-paging runtime
    manages its own pages (§5.2.1).  It is also the adversary's vantage
    point: attack drivers observe faults through the {!hooks} and
    manipulate page tables through the [attacker_*] functions.

    EPC accounting: each process has an [epc_limit] — the maximum number
    of EPC frames the OS grants it.  Resident *enclave-managed* pages are
    pinned (the OS honours the Autarky contract unless an attack driver
    says otherwise); OS-managed pages are evicted by a clock algorithm
    for legacy enclaves and FIFO for self-paging enclaves (whose
    accessed bits the OS can no longer use). *)

type proc
(** One enclave-hosting process. *)

(** What the attacker's fault hook tells the kernel to do next (relevant
    to legacy enclaves only; self-paging enclaves force re-entry through
    the trusted handler regardless). *)
type fault_decision =
  | Benign
      (** run the normal demand-paging service, then resume *)
  | Fixed_silently
      (** the hook already repaired the mapping; resume without any
          in-enclave visibility — the controlled channel's key step *)

type hooks = {
  mutable on_fault : proc -> Sgx.Types.os_fault_report -> fault_decision;
  mutable on_preempt : proc -> unit;
  mutable on_fetch : proc -> Sgx.Types.vpage list -> unit;
      (** Fired whenever pages of the process become EPC-resident (ELDU
          on the SGXv1 path, EAUG on the SGXv2 path) — the demand-paging
          side channel of §4, which the OS can always observe.  Default
          is a no-op; passive attack drivers (Pigeonhole-style
          fault-pattern adversaries) install themselves here. *)
}

type t

val create : Sgx.Machine.t -> t
val machine : t -> Sgx.Machine.t
val hooks : t -> hooks

val create_proc :
  t -> size_pages:int -> self_paging:bool -> epc_limit:int -> proc
(** ECREATE an enclave of [size_pages] pages, hosted by a fresh process
    allowed to hold at most [epc_limit] EPC frames at a time. *)

val enclave : proc -> Sgx.Enclave.t
val page_table : proc -> Sgx.Page_table.t
val resident_pages : proc -> int

val proc_footprint : proc -> Metrics.Words.t -> unit
(** Count the process's swap store and its page-state windows (page
    table, enclave-managed and intended-perms tables, queue seqs). *)

val epc_limit : proc -> int
val set_epc_limit : proc -> int -> unit

val add_initial_page :
  t -> proc -> vpage:Sgx.Types.vpage -> data:Sgx.Page_data.t ->
  perms:Sgx.Types.perms -> unit
(** Populate one page of the initial enclave image.  While the process
    has EPC headroom the page is EADDed and mapped; once the image
    exceeds the limit, remaining pages are placed directly in the backing
    store (as if added and evicted during initialization, which the
    paper's methodology excludes from measurement): each takes its
    version and VA slot now, and the store seals its row when
    something first reads it ({!Swap_store.put_deferred}). *)

val finalize : t -> proc -> unit
(** EINIT: no further initial pages may be added. *)

val os_callbacks : t -> Sgx.Cpu.os_callbacks
(** The fault/preempt entry points wired into the CPU model. *)

(** {1 Autarky system calls (§5.2.1)}

    All syscalls are exitless host calls (the prototype's configuration);
    each call charges one host-call round trip regardless of batch
    size — the reason the ABI takes page lists. *)

(** Why the kernel failed to produce a requested page.  [`Epc_exhausted]
    is (possibly transiently) benign; the [`Blob_*] cases are Byzantine
    faults on the backing store — deleted, tampered or replayed blobs —
    that a self-paging runtime must detect. *)
type fetch_error =
  [ `Epc_exhausted
  | `Blob_missing of Sgx.Types.vpage
  | `Blob_mac_mismatch of Sgx.Types.vpage
  | `Blob_replayed of Sgx.Types.vpage ]

val pp_fetch_error : Format.formatter -> fetch_error -> unit

val ay_set_enclave_managed :
  t -> proc -> Sgx.Types.vpage list -> (Sgx.Types.vpage * bool) list
(** Claim pages for enclave management; returns each page's current
    residence so the runtime can initialize its tracking. *)

val ay_set_os_managed : t -> proc -> Sgx.Types.vpage list -> unit
(** Yield pages back to OS management (they become evictable). *)

val ay_fetch_pages :
  t -> proc -> Sgx.Types.vpage list -> (unit, fetch_error) result
(** SGXv1 path: ELDU each page from the backing store and map it.
    Fails without partial effect if EPC headroom cannot be made; fails
    at the offending page if its blob is missing, tampered or stale
    (pages before it in the batch stay fetched). *)

val ay_fetch_page :
  t -> proc -> Sgx.Types.vpage -> (unit, fetch_error) result
(** Single-page [ay_fetch_pages] — identical counters, charges and
    trace events to a one-element batch, without the list plumbing.
    The demand-fetch fast path the fault handler runs on every miss. *)

val ay_evict_pages : t -> proc -> Sgx.Types.vpage list -> unit
(** SGXv1 path: EWB each resident page to the backing store and unmap. *)

(** {1 SGXv2 support calls (used by the runtime's in-enclave pager)} *)

val ay_aug_pages :
  t -> proc -> Sgx.Types.vpage list -> (unit, [ `Epc_exhausted ]) result
(** EAUG + map each page (pending until the enclave EACCEPTCOPYs). *)

val ay_aug_page :
  t -> proc -> Sgx.Types.vpage -> (unit, [ `Epc_exhausted ]) result
(** Single-page [ay_aug_pages] — the SGXv2 demand-fetch fast path. *)

val ay_remove_pages : t -> proc -> Sgx.Types.vpage list -> unit
(** EREMOVE + unmap each page (after the enclave trimmed and accepted). *)

val blob_store : t -> proc -> Sgx.Types.vpage -> Sim_crypto.Sealer.sealed -> unit
(** Enclave writes a runtime-sealed page to untrusted memory (no host
    call needed — direct store). *)

val blob_load : t -> proc -> Sgx.Types.vpage -> Sim_crypto.Sealer.sealed option
(** Take back a runtime-sealed row; [None] when nothing is stored for
    the page or its row is one EWB produced, which stays stored. *)

val page_in_os_managed :
  t -> proc -> Sgx.Types.vpage -> (unit, fetch_error) result
(** Demand-paging service for a fault the runtime forwarded because it
    hit an OS-managed page. *)

val epc_headroom : t -> proc -> int
(** Frames the process could still obtain (counting evictable OS-managed
    pages). *)

(** {1 Memory ballooning (§5.2.1's deferred upcall mechanism)} *)

val set_balloon_handler : t -> proc -> (int -> int) -> unit
(** Register the enclave's memory-pressure upcall (wired to
    {!Autarky.Runtime.balloon_release} by the harness). *)

val request_balloon : t -> proc -> pages:int -> int
(** Upcall into the enclave asking it to release [pages] enclave-managed
    pages.  The enclave applies its policy (whole clusters, FIFO batches,
    or refusal) and the call returns the number actually released.
    Charges an enclave entry/exit round trip. *)

val release_proc : t -> proc -> unit
(** Tear a process down (typically after its enclave terminated): free
    every EPC frame the enclave still holds — a dead enclave cannot
    release them itself — mark the enclave [Dead] if it was not
    already, and unregister the process from the kernel.  The freed
    frames return to the machine-wide pool, so a replacement enclave
    (an attested restart) can be created in its place, and so do the
    VA slots of the pages still swapped out; no deferred boot page is
    sealed for it. *)

val reclaim_for_shrink : t -> proc -> target:int -> unit
(** Evict the process's OS-managed pages until its residency is at most
    [target] or no evictable page remains (used when a hypervisor shrinks
    the guest's partition). *)

val reclaim_global :
  t -> needed:int -> requester:proc -> (unit, [ `Epc_exhausted ]) result
(** Multi-enclave memory pressure: free EPC frames for [requester] by
    evicting other processes' OS-managed pages and, failing that,
    ballooning their enclaves.  Static partitioning (disjoint
    [epc_limit]s) never needs this; it implements the cooperative
    balancing §5.2.1 sketches. *)

(** {1 Adversarial page-table manipulation} *)

val attacker_unmap : t -> proc -> Sgx.Types.vpage -> unit
val attacker_restore : t -> proc -> Sgx.Types.vpage -> unit
(** Undo an [attacker_unmap] / permission change: restore the intended
    mapping if the frame is still resident. *)

val attacker_set_perms : t -> proc -> Sgx.Types.vpage -> Sgx.Types.perms -> unit
val attacker_clear_accessed : t -> proc -> Sgx.Types.vpage -> unit
val attacker_clear_dirty : t -> proc -> Sgx.Types.vpage -> unit

val attacker_read_ad : t -> proc -> Sgx.Types.vpage -> (bool * bool) option
(** Current (accessed, dirty) bits, if the page has a PTE. *)

val attacker_map_wrong : t -> proc -> victim:Sgx.Types.vpage -> other:Sgx.Types.vpage -> unit
(** Point [victim]'s PTE at the frame backing [other]. *)

val attacker_evict : t -> proc -> Sgx.Types.vpage -> unit
(** Forcibly EWB a page regardless of the enclave-managed contract. *)

val attacker_sample_branches : t -> proc -> Sgx.Types.vpage list
(** Read out (and clear) the machine's branch-trace ring, keeping the
    records of this process's enclave — the Branch Shadowing channel
    (Lee et al.): code pages the enclave executed since the last sample,
    oldest first.  Emits an [Observe] event; outside Autarky's paging
    threat model, so it works against every policy. *)

val swap : t -> proc -> Swap_store.t
(** Raw access to the (untrusted) backing store, for replay attacks. *)

val resident : t -> proc -> Sgx.Types.vpage -> bool
(** Whether the page currently occupies an EPC frame (the OS can always
    tell — the demand-paging side channel of §4). *)
