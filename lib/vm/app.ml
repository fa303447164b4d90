type event =
  | Boot
  | Packet_in of Sw_net.Packet.t
  | Disk_done of { tag : int }
  | Dma_done of { tag : int }
  | Timer of { tag : int }
  | Tick

type action =
  | Compute of int
  | Disk_read of { bytes : int; sequential : bool; tag : int }
  | Disk_write of { bytes : int; sequential : bool; tag : int }
  | Dma_transfer of { bytes : int; tag : int }
  | Send of { dst : Sw_net.Address.t; size : int; payload : Sw_net.Packet.payload }
  | Set_timer of { after : Sw_sim.Time.t; tag : int }

type t = { handle : virt_now:Sw_sim.Time.t -> event -> action list }

type factory = unit -> t

let idle () = { handle = (fun ~virt_now:_ _ -> []) }

let stateful ~init ~handle () =
  let state = ref init in
  {
    handle =
      (fun ~virt_now event ->
        let state', actions = handle !state ~virt_now event in
        state := state';
        actions);
  }
