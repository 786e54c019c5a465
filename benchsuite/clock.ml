(* Every duration the suite reports comes from this monotonic clock
   (CLOCK_MONOTONIC through bechamel's stub), never from wall time. *)

let now_ns () = Monotonic_clock.now ()
let ms_of_ns ns = Int64.to_float ns /. 1e6
let ms_since t0 = ms_of_ns (Int64.sub (now_ns ()) t0)
let s_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let sleep_until t =
  let rec go () =
    let left = Int64.to_float (Int64.sub t (now_ns ())) /. 1e9 in
    if left > 0. then begin
      Unix.sleepf left;
      go ()
    end
  in
  go ()
