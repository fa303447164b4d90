(** The audit driver: sweep every {!Detector} over a set of named
    observation series and assemble a deterministic leakage report.

    An audit is generic over where the series came from: the CLI and the
    benches extract them from scenario runs (null = StopWatch on / victim
    absent, alt = StopWatch off / victim present — any two configs), the
    soak driver feeds split-half slices of a live run. Each series key
    conventionally carries its lineage attribution
    (["vm0/median-adoption"], ["attacker/inter-delivery"]), so a leaking
    series names the mechanism that failed to mask it. *)

type series = {
  key : string;
  null : float array;  (** Observations with the secret absent. *)
  alt : float array;  (** Observations with the secret present. *)
}

type finding = {
  f_key : string;
  n_null : int;
  n_alt : int;
  reports : Detector.report list;  (** One per detector, in battery order. *)
  leaking : string list;  (** Names of the detectors that flagged. *)
}

type t = { label : string; findings : finding list }

(** [run ~registry ~label series] sweeps {!Detector.all} over every
    series, in order, and bumps the [leak.detector.series] /
    [leak.detector.verdicts] / [leak.detector.samples_dropped] counters in
    [registry]. *)
val run :
  registry:Sw_obs.Registry.t ->
  label:string ->
  series list ->
  t

(** [pair ~null ~alt] pairs two configurations' observation series by key,
    in [null]'s order; keys present on one side only are dropped (the
    victim's own VM exists in just one run and has no counterpart). *)
val pair :
  null:(string * float array) list ->
  alt:(string * float array) list ->
  series list

(** [split_half ~label series] audits each single series against itself —
    first half as null, second half as alt — the drift probe the soak
    driver samples at every checkpoint grid point. Series shorter than 2
    are dropped. *)
val split_half : label:string -> (string * float array) list -> t

(** Series that leaked, with the detectors that flagged them. *)
val attribution : t -> (string * string list) list

(** The guest-visible verdict: the detectors (sorted, deduplicated) that
    flagged any attacker-observable [attacker/*] series. The [vm*/...]
    lineage series are attribution: they say where a possibly masked
    host-level signal lives, not what the guest can read. *)
val guest_leaking : t -> string list

(** True when any series leaked under any detector. *)
val leak : t -> bool

(** The ["leakage"] JSON object: label, overall verdict, attribution
    list, and per-series detector reports (p-values, effect sizes,
    observations-needed curves). Byte-stable. *)
val to_report : t -> Sw_runner.Report.t
