(* Reads one metric out of a registry snapshot by its registered name, the
   path the reports use, and fails the test naming the metric when the
   snapshot does not hold it. [Snapshot.counter] and its siblings read an
   absent name as 0, so a misspelt or renamed metric would otherwise pass
   every [= 0] check. Where absence is the expected state, assert
   [Snapshot.find snap name = None] instead. *)

module Snapshot = Sw_obs.Snapshot

let present snap name =
  if Option.is_none (Snapshot.find snap name) then
    Alcotest.failf "metric %S is not in the snapshot" name

let counter snap name =
  present snap name;
  Snapshot.counter snap name

let sum snap name =
  present snap name;
  Snapshot.sum snap name

let gauge snap name =
  present snap name;
  Snapshot.gauge snap name

let histogram snap name =
  match Snapshot.histogram snap name with
  | Some h -> h
  | None -> Alcotest.failf "histogram %S is not in the snapshot" name
