"""Plain-text table rendering for benchmark reports."""

__all__ = ["TableBuilder", "format_table"]


def _cell(value):
    if value is None:
        return "-"  # not measured (e.g. RES with auditing off)
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers, rows, title=None):
    """Render an aligned ASCII table."""
    table_rows = [[_cell(value) for value in row] for row in rows]
    header_cells = [str(header) for header in headers]
    widths = [len(cell) for cell in header_cells]
    for row in table_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(" | ".join(
        cell.ljust(width) for cell, width in zip(header_cells, widths)
    ))
    lines.append(separator)
    for row in table_rows:
        lines.append(" | ".join(
            cell.ljust(width) for cell, width in zip(row, widths)
        ))
    return "\n".join(lines)


class TableBuilder:
    """Incremental table construction with a fluent interface."""

    def __init__(self, headers, title=None):
        self.headers = list(headers)
        self.title = title
        self.rows = []

    def add_row(self, *values):
        if len(values) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(values)}"
            )
        self.rows.append(list(values))
        return self

    def render(self):
        return format_table(self.headers, self.rows, title=self.title)

    def to_csv(self):
        lines = [",".join(str(h) for h in self.headers)]
        for row in self.rows:
            lines.append(",".join(_cell(value) for value in row))
        return "\n".join(lines)

    def __str__(self):
        return self.render()
