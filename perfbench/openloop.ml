(* Open-loop request schedule.  Request [i] is due at
   [start + i / rate]; its latency runs from that due time, not from
   when it was actually sent, so a stall that delays sending is charged
   to every request it delayed.  The clock is the caller's, which lets
   tests drive the schedule with a fake one. *)

type t = {
  start : float;
  interval : float;
  mutable next : int;  (** first request not yet handed out *)
  lags : (int, float) Hashtbl.t;  (** sent - due, per sent request *)
  latencies : (int, float) Hashtbl.t;  (** done - due, per completed *)
}

let create ~start ~rate =
  if rate <= 0. then invalid_arg "Openloop.create: rate must be positive";
  {
    start;
    interval = 1. /. rate;
    next = 0;
    lags = Hashtbl.create 1024;
    latencies = Hashtbl.create 1024;
  }

let due t i = t.start +. (float i *. t.interval)

let next_due t = due t t.next

(* Hand out every request due at or before [now], in order, and record
   that each is sent at [now]. *)
let take_due t ~now =
  let rec go acc =
    if due t t.next <= now then begin
      let i = t.next in
      t.next <- i + 1;
      Hashtbl.replace t.lags i (now -. due t i);
      go (i :: acc)
    end
    else List.rev acc
  in
  go []

let complete t i ~now =
  if i < 0 || i >= t.next then invalid_arg "Openloop.complete: unsent request";
  Hashtbl.replace t.latencies i (now -. due t i)

let sent t = t.next

let outstanding t = t.next - Hashtbl.length t.latencies

let values h =
  Hashtbl.fold (fun i v acc -> (i, v) :: acc) h []
  |> List.sort compare |> List.map snd |> Array.of_list

let latencies t = values t.latencies

let lags t = values t.lags
