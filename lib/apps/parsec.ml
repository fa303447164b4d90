module App = Sw_vm.App

type profile = {
  name : string;
  compute_branches : int;
  io_count : int;
  io_bytes : int;
  random_io_fraction : float;
  write_fraction : float;
}

(* compute_branches are calibrated so the simulated baseline runtimes land
   near Fig. 7(a)'s baseline bars (171/177/1530/3730/290 ms) given the
   default disk model (avg random access ~3.7 ms, sequential ~0.25 ms);
   see bench/fig7. *)
let ferret =
  {
    name = "ferret";
    compute_branches = 120_000_000;
    io_count = 31;
    io_bytes = 16384;
    random_io_fraction = 0.3;
    write_fraction = 0.1;
  }

let blackscholes =
  { ferret with name = "blackscholes"; compute_branches = 114_000_000; io_count = 38 }

let canneal =
  {
    ferret with
    name = "canneal";
    compute_branches = 1_228_000_000;
    io_count = 183;
  }

let dedup =
  {
    ferret with
    name = "dedup";
    compute_branches = 3_246_000_000;
    io_count = 293;
    write_fraction = 0.4;
  }

let streamcluster =
  {
    ferret with
    name = "streamcluster";
    compute_branches = 245_000_000;
    io_count = 27;
  }

let all_profiles = [ ferret; blackscholes; canneal; dedup; streamcluster ]

(* Deterministic pseudo-random decision for phase i — identical across
   replicas by construction. *)
let phase_hash i = i * 2654435761 land 0x3FFFFFFF

let app profile ~collector () =
  if profile.io_count < 0 then invalid_arg "Parsec.app: negative io_count";
  let phase = ref 0 in
  let compute_per_phase =
    if profile.io_count = 0 then profile.compute_branches
    else profile.compute_branches / profile.io_count
  in
  let next_actions () =
    let i = !phase in
    incr phase;
    if i < profile.io_count then begin
      let h = phase_hash i in
      let random = float_of_int (h mod 1000) /. 1000. < profile.random_io_fraction in
      let write =
        float_of_int (h / 1000 mod 1000) /. 1000. < profile.write_fraction
      in
      let io =
        if write then
          App.Disk_write
            { bytes = profile.io_bytes; sequential = not random; tag = i }
        else
          App.Disk_read
            { bytes = profile.io_bytes; sequential = not random; tag = i }
      in
      [ App.Compute compute_per_phase; io ]
    end
    else if i = profile.io_count then
      [
        App.Compute
          (profile.compute_branches - (compute_per_phase * profile.io_count));
        App.Send
          {
            dst = collector;
            size = 64;
            payload = Sw_net.Packet.App (Sw_net.Msg.Job_done { name = profile.name });
          };
      ]
    else []
  in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match event with
        | App.Boot -> next_actions ()
        | App.Disk_done _ -> next_actions ()
        | _ -> []);
  }
