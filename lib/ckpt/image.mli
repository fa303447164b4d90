(** The on-disk checkpoint image: a versioned, checksummed, atomically
    written container around the [Cloud.checkpoint] bytes.

    Layout (all offsets fixed):
    {v
      bytes 0..5   magic  "SWCKPT"
      bytes 6..7   format version, two ASCII decimal digits
      bytes 8..15  header length, unsigned 64-bit big-endian
      ...          header: Marshal'd {!meta} (plain data, no closures)
      ...          payload: Cloud.checkpoint bytes, [meta.payload_len] long
    v}

    The header carries an MD5 digest of the payload, so {!read} never hands
    back silently corrupted state — a flipped bit anywhere in the payload
    is a {!error.Corrupt}, a short file a {!error.Truncated}, and a file
    from an older (or newer) layout a {!error.Version_mismatch}. Writes go
    through a [.tmp] sibling and a final [rename], so a crash mid-write
    can only ever leave a [.tmp] carcass behind, never a plausible-looking
    half image under the real name. *)

(** Everything knowable about an image without loading (or trusting) its
    payload. *)
type meta = {
  scenario : string;
      (** Identity of the run — scenario name plus the digest of its
          compiled workload and its shard count, see [Soak.run]. *)
  seed : int64;
  shards : int;
  index : int;  (** Position in the checkpoint timeline, from 0. *)
  sim_ns : int64;  (** Simulated instant of capture. *)
  fingerprint : string;
      (** Digest of the shard-layout-independent state summary at capture
          ([Bisect.fingerprint]); equal fingerprints at equal indexes mean
          two runs had not yet diverged. *)
  payload_digest : Digest.t;
  payload_len : int;
}

type error =
  | Truncated  (** File shorter than its own framing says. *)
  | Bad_magic  (** Not a checkpoint image at all. *)
  | Version_mismatch of { found : int; expected : int }
  | Corrupt of string  (** Framing intact but content does not check out. *)
  | Io of string  (** The OS said no ([Sys_error] and friends). *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val version : int

(** [write ~path meta ~payload] writes atomically: the image appears under
    [path] complete or not at all. [meta.payload_digest] and
    [meta.payload_len] are recomputed from [payload] — callers cannot
    accidentally write a lying header. *)
val write : path:string -> meta -> payload:string -> (unit, error) result

(** [read ~path] loads and fully verifies an image: framing, version, and
    payload digest. The returned payload is safe to feed to
    [Cloud.restore] (which still enforces same-binary compatibility on its
    own). *)
val read : path:string -> (meta * string, error) result

(** [read_meta ~path] loads and checks the framing only — cheap enough to
    call over a whole timeline; the payload is neither read nor verified. *)
val read_meta : path:string -> (meta, error) result
