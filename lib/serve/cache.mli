(** Content-addressed result cache: an in-memory tier over an optional
    persistent on-disk tier.

    Keys are arbitrary strings (the {!Cached} layer builds them from
    {!Digest} values + seed + flags); payloads are opaque strings.  The
    on-disk tier lives under [dir/v2/] as immutable {e packs}: each
    {!store} publishes its whole batch as one file named by the MD5 of
    its bytes ([<md5>.pack]), written to a temp file and [rename]d into
    place, so concurrent daemons and killed runs never expose a
    half-written pack.  A pack is a run of self-delimiting records —
    a ["<key length> <payload length> <payload MD5>"] header line, the
    full key, the payload — so a truncated pack serves the records
    before the damage.  The cache never rewrites or deletes a pack;
    entries of the older one-file-per-key [dir/v1/] layout are ignored
    and left on disk.

    {!create} indexes the packs already on disk (key → pack, offset,
    length), and every {!store} extends the index.  A key missing from
    the index re-scans the directory for packs other processes have
    published before it counts as a miss; the re-scan runs only when
    the directory's mtime moved since the last scan, so daemons sharing
    a cache directory see each other's entries.  A cache's own store
    moves that mtime too; when nothing else moved it since the last
    scan, the store records the mtime its rename left, so a cache that
    alone writes its directory lists it once, at {!create}.  Two windows
    are tolerated: a pack published within the timestamp tick of a
    scan's listing, and a pack another process publishes while a store
    renames its own, are each seen after the directory's next change;
    until then their keys are recomputed.  Each listing counts
    [serve.cache.scan].  Every disk read
    checks the payload's MD5: a mismatch or a short read counts as a
    miss, bumps [serve.cache.corrupt] and drops the record from the
    index, so the recomputed entry's next {!store} serves later
    lookups.

    Lookups count [serve.cache.hit] / [serve.cache.miss] and memory
    eviction counts [serve.cache.evict] through
    {!Automode_obs.Probe} (no-ops without a sink) and into the local
    {!stats} — a decode rejection counts as a miss, so the counters
    state exactly how many verdicts were served from cache. *)

type t

val mkdir_p : string -> unit
(** Create a directory and its missing parents (existing ones are
    fine) — shared by the cache's disk tier and the daemon's spool and
    results directories. *)

val write_atomic : path:string -> string -> unit
(** Write [content] to a temp file in [path]'s directory and [rename]
    it into place — readers see the old bytes or the new bytes, never a
    torn file.  The temp name is unique per call (pid, domain, counter),
    so any number of domains and processes may write one path at once.
    Used for cache packs, job reports and status files. *)

val create : ?dir:string -> ?capacity:int -> unit -> t
(** A cache whose memory tier holds at most [capacity] entries
    (default 4096, FIFO eviction); [?dir] adds the persistent tier
    (created on demand) and indexes the packs already in it.
    @raise Invalid_argument on [capacity < 1]. *)

val find : t -> key:string -> decode:(string -> 'a option) -> 'a option
(** Probe memory, then disk (promoting a disk hit into memory).  The
    payload is passed through [decode]; a [None] decode is treated —
    and counted — as a miss, so stale or corrupt entries fall back to
    recomputation. *)

val store : t -> (string * string) list -> unit
(** Insert a batch of [(key, payload)] entries into the memory tier, in
    order (evicting FIFO at capacity), and, when the cache is
    persistent, publish the batch as one pack whose records replace any
    older record of the same keys.  Callers store once per campaign
    leg; an empty batch writes nothing. *)

val stats : t -> int * int * int
(** [(hits, misses, evictions)] since creation — the numbers behind the
    per-job cache summary in the daemon's status files. *)

val dir : t -> string option
(** The persistent tier's root directory, if any. *)
