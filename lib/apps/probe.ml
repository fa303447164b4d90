module App = Sw_vm.App
module Packet = Sw_net.Packet
module Msg = Sw_net.Msg

let receiver ?echo_to () () =
  let count = ref 0 in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match event with
        | App.Packet_in _ -> (
            incr count;
            match echo_to with
            | Some dst ->
                [
                  App.Compute 20_000;
                  App.Send
                    { dst; size = 100; payload = Packet.App (Msg.Probe_echo !count) };
                ]
            | None -> [ App.Compute 20_000 ])
        | _ -> []);
  }

let timer_tag = 7

let streamer ~sink ~period ~burst ~bytes_per_packet () =
  if burst < 1 then invalid_arg "Probe.streamer: burst must be >= 1";
  let bursts = ref 0 in
  let sends n =
    List.concat
      (List.init n (fun i ->
           [
             App.Compute 5_000;
             App.Send
               {
                 dst = sink;
                 size = bytes_per_packet;
                 payload = Packet.App (Msg.Stream_data i);
               };
           ]))
  in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match event with
        | App.Boot -> [ App.Set_timer { after = period; tag = timer_tag } ]
        | App.Timer { tag } when tag = timer_tag ->
            incr bursts;
            let disk =
              if !bursts mod 2 = 0 then
                [ App.Disk_read { bytes = 65536; sequential = true; tag = 100 + !bursts } ]
              else []
            in
            (App.Set_timer { after = period; tag = timer_tag } :: disk) @ sends burst
        | _ -> []);
  }

let load_generator ~sink () =
  let period = Sw_sim.Time.ms 1 in
  let bursts = ref 0 in
  {
    App.handle =
      (fun ~virt_now:_ event ->
        match event with
        | App.Boot -> [ App.Set_timer { after = period; tag = timer_tag } ]
        | App.Timer { tag } when tag = timer_tag ->
            incr bursts;
            App.Set_timer { after = period; tag = timer_tag }
            :: App.Disk_read { bytes = 65536; sequential = false; tag = 100 + !bursts }
            :: List.init 18 (fun i ->
                   App.Send
                     { dst = sink; size = 1400; payload = Packet.App (Msg.Stream_data i) })
        | _ -> []);
  }
