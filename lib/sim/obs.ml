type t = {
  on : bool;
  trace : Trace.t;
  ledger : Ledger.t;
  reqtrace : Reqtrace.t;
}

let create ?(trace = Trace.null) ?(ledger = Ledger.null)
    ?(reqtrace = Reqtrace.null) () =
  { on = Trace.enabled trace || Ledger.enabled ledger; trace; ledger; reqtrace }

let null = create ()
let on t = t.on

let emit t ~time ~stream ev =
  Trace.emit t.trace ~time ~stream ev;
  Ledger.observe t.ledger ~time ~stream ev

let trace t = t.trace
let reqtrace t = t.reqtrace
