(** Guest-visible real-time clock interfaces (paper Sec. IV-B).

    On real hardware a guest can read time through several doors: the
    [rdtsc] instruction (time-stamp counter), the CMOS real-time clock
    (seconds granularity), and the Programmable Interval Timer's countdown
    register. Xen already emulates all three; StopWatch re-bases the
    emulations on the guest's *virtual* clock so that every value a guest can
    observe is a deterministic function of its own progress.

    A guest application holds a [Clocks.t] and evaluates these readings at
    the [virt_now] its event handler receives; because they all derive from
    virtual time, replicas reading at the same point of their execution
    obtain bit-identical values (tested), so no internal clock can serve as
    an independent reference for a timing attack. *)

type t

(** [create ~tsc_hz ~pit_hz ~pit_reload ()] describes the virtual platform's
    clocks: a TSC advancing at [tsc_hz] (default 3.0 GHz, the paper's
    Q9650), and a PIT at [pit_hz] (default 1.193182 MHz, the i8254 input
    clock) whose counter counts down from [pit_reload] (default 4772 — a
    250 Hz interrupt rate, the paper's guest configuration). *)
val create : ?tsc_hz:float -> ?pit_hz:float -> ?pit_reload:int -> unit -> t

(** [rdtsc t ~virt] is the time-stamp counter value a guest reads at virtual
    time [virt]: [floor (virt_seconds * tsc_hz)]. The product
    [virt * kHz] is taken in a function-local 64-bit expression, so the
    reading is exact (a 64-bit clock's value, bit for bit) over the whole
    [int] range of [virt] and allocates nothing. *)
val rdtsc : t -> virt:Sw_sim.Time.t -> int

(** [rtc_seconds t ~virt] is the CMOS RTC reading (whole seconds of virtual
    time since guest start). *)
val rtc_seconds : t -> virt:Sw_sim.Time.t -> int

(** [pit_counter t ~virt] is the PIT countdown register: it decrements at
    [pit_hz] from [pit_reload] and reloads on reaching zero. The tick count
    [virt * pit_hz / 10^9] is exact in the same way as {!rdtsc}'s. *)
val pit_counter : t -> virt:Sw_sim.Time.t -> int

(** Interrupt period implied by the PIT programming ([pit_reload / pit_hz]),
    useful as the guest's [pit_period] configuration. *)
val pit_interrupt_period : t -> Sw_sim.Time.t
