"""From minute bars to the day's feature table, one step at a time.

Everything downstream consumes one table per day: a numpy structured array
with a row per minute and a column per feature. This script shows exactly
what each column holds for a concrete synthetic day.
"""

import datetime as dt
import math

from minutecast.marketdata import (
    SESSION_START_MINUTE,
    SynthParams,
    VIX_INTRADAY_DENOM,
    build_feature_rows,
    generate_synthetic_day,
    minute_to_time,
)


def main():
    day = dt.date(2021, 6, 1)
    series = generate_synthetic_day(SynthParams(n_days=1, seed=14), day)
    # the day's bars are one table too: a row per minute, columns minute, spy_price, vix
    minutes = series.bars["minute"].tolist()
    print(f"synthetic session for {day}: {len(series.bars)} bars, "
          f"{minute_to_time(minutes[0])} .. {minute_to_time(minutes[-1])}")

    table = build_feature_rows(series)
    first = int(table["minute"][0])
    print(f"{len(table)} feature rows; the first sits at minute {first} "
          f"({minute_to_time(first)}) because every column needs bars "
          "back to nine minutes earlier")
    print(f"columns: {', '.join(table.dtype.names)}\n")

    row = table[40]
    m = int(row["minute"])
    print(f"row at {minute_to_time(m)}:")
    print(f"  r5       = {row['r5']: .3e}   five-minute log return ending now")
    print(f"  lag_r5   = {row['lag_r5']: .3e}   same quantity five minutes ago")
    print(f"  lag_r5_sq= {row['lag_r5_sq']: .3e}   its square, a realized-variance proxy")
    print(f"  vix_lag  = {row['vix_lag']: .3e}   annualized VIX / {VIX_INTRADAY_DENOM:.3f}")
    print(f"  dvix_lag = {row['dvix_lag']: .3e}   one-minute change of that rescaled VIX")
    print(f"  vrp_lag  = {row['vrp_lag']: .3e}   squared 1-min return minus squared VIX")

    # recompute r5 straight from the bars to show there is no magic; the
    # table takes each log with math.log, so the two agree exactly
    prices = series.bars["spy_price"].tolist()
    p_now = prices[m - SESSION_START_MINUTE]
    p_then = prices[m - 4 - SESSION_START_MINUTE]
    by_hand = math.log(p_now) - math.log(p_then)
    print(f"\nby hand: log({p_now:.4f}) - log({p_then:.4f}) = {by_hand: .3e}")
    assert by_hand == row["r5"]
    print("equals the table's r5 exactly")

    # the target of the window ending before minute m is this row's r5;
    # the model only ever sees the *_lag columns, all measurable earlier
    lagged = [name for name in ("lag_r5", "lag_r5_sq", "vix_lag", "dvix_lag", "vrp_lag")]
    print(f"\npredictors available at forecast time: {', '.join(lagged)}")


if __name__ == "__main__":
    main()
