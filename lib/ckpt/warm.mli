(** Warm-start cache for expensive scenario builds.

    Building a 10k-host datacenter cloud — tens of thousands of machines,
    replica groups, clients, and flow generators — costs real wall time
    before the first event fires, and a configuration sweep pays it once
    per configuration. This module caches the {e prepared-but-unrun}
    {!Sw_workload.Run.handle} at simulated t=0 as a {!Image} on disk,
    keyed by an opaque [key] string (callers bake in everything that
    shapes the build: scenario digest, shard count, partition).
    Subsequent runs of the same configuration
    [Cloud.restore] the image instead of rebuilding — the restored handle
    is fully live and byte-equivalent to a cold build, which the
    identity manifest's [warm-*] lines pin to one report digest.

    Images are same-binary artifacts (Marshal with closures); a cache hit
    from a stale binary fails [Cloud.restore]'s compatibility check and
    falls back to a rebuild transparently. *)

type status =
  | Built  (** Cache miss (or unreadable image): built fresh, image written. *)
  | Restored  (** Cache hit: handle restored from the image. *)

(** [load_or_build ~dir ~key ~seed ~shards ~build] returns a ready-to-run
    handle for the configuration identified by [key]: restored from a
    valid cached image when one exists, otherwise built by [build ()] and
    checkpointed for next time. [seed] and [shards] are recorded in the
    image header for inspection; identity rests on [key] alone. Errors
    only when the cache directory or a fresh image cannot be written. *)
val load_or_build :
  dir:string ->
  key:string ->
  seed:int64 ->
  shards:int ->
  build:(unit -> Sw_workload.Run.handle) ->
  (Sw_workload.Run.handle * status, string) result
